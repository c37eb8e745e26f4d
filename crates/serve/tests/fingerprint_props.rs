//! Property tests for the plan-cache fingerprint, pinning the cache's
//! correctness contract:
//!
//! * identical request bodies (up to `f64` bit pattern) always produce
//!   identical keys and fingerprints — a guaranteed hit;
//! * perturbing any single field — one cycle-time entry, the grid
//!   shape, the kernel, or the block count — produces a different key
//!   — a guaranteed miss;
//! * keys and fingerprints are pure functions of the body bytes: no
//!   `HashMap` iteration order, pointer, or run-local state leaks in
//!   (checked by computing through an encode/decode round trip, which
//!   rebuilds every collection from scratch).

use hetgrid_serve::proto::{
    decode_request, encode_request, Kernel, PlanSpec, Request, RequestBody, SolveSpec,
};
use hetgrid_serve::{cache_key, fingerprint};
use proptest::prelude::*;

fn kernel_strategy() -> impl Strategy<Value = Kernel> {
    (0u8..4).prop_map(|b| Kernel::from_u8(b).unwrap())
}

fn body_strategy() -> impl Strategy<Value = RequestBody> {
    (1usize..4, 1usize..4, kernel_strategy(), 1usize..12).prop_flat_map(|(p, q, kernel, nb)| {
        prop::collection::vec(0.05f64..8.0, p * q).prop_map(move |times| {
            RequestBody::Plan(PlanSpec {
                solve: SolveSpec { p, q, times },
                kernel,
                nb,
            })
        })
    })
}

/// The body rebuilt from its own wire form: every Vec and String is a
/// fresh allocation, so any address- or order-dependence in the key
/// computation would show up as a key difference.
fn rebuilt(body: &RequestBody) -> RequestBody {
    let req = Request {
        tenant: "rebuild".into(),
        body: body.clone(),
    };
    decode_request(&encode_request(&req))
        .expect("round trip")
        .body
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn identical_bodies_always_collide(body in body_strategy()) {
        let a = cache_key(&body).unwrap();
        let b = cache_key(&rebuilt(&body)).unwrap();
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn single_time_perturbation_always_misses(
        body in body_strategy(),
        idx in 0usize..16,
        bump_idx in 0usize..3
    ) {
        let bump = [1.0e-15, 1.0e-9, 0.5][bump_idx];
        let base = cache_key(&body).unwrap();
        let RequestBody::Plan(mut plan) = body else { unreachable!() };
        let i = idx % plan.solve.times.len();
        plan.solve.times[i] += bump * plan.solve.times[i].abs().max(1.0);
        let perturbed = RequestBody::Plan(plan);
        prop_assert_ne!(cache_key(&perturbed).unwrap(), base);
    }

    #[test]
    fn nb_kernel_kind_and_shape_perturbations_always_miss(body in body_strategy()) {
        let base = cache_key(&body).unwrap();
        let base_fp = fingerprint(&base);
        let RequestBody::Plan(plan) = &body else { unreachable!() };

        // Block count.
        let mut v = plan.clone();
        v.nb += 1;
        prop_assert_ne!(cache_key(&RequestBody::Plan(v)).unwrap(), base.clone());

        // Kernel.
        let mut v = plan.clone();
        v.kernel = Kernel::from_u8((v.kernel.as_u8() + 1) % 4).unwrap();
        prop_assert_ne!(cache_key(&RequestBody::Plan(v)).unwrap(), base.clone());

        // Request kind (same spec, different endpoint).
        let sim = cache_key(&RequestBody::Simulate(plan.clone())).unwrap();
        prop_assert_ne!(sim, base.clone());

        // Grid shape: transposing p x q keeps the times vector length
        // but must change the key whenever the shape actually differs.
        if plan.solve.p != plan.solve.q {
            let mut v = plan.clone();
            std::mem::swap(&mut v.solve.p, &mut v.solve.q);
            let transposed = cache_key(&RequestBody::Plan(v)).unwrap();
            prop_assert_ne!(transposed.clone(), base.clone());
            prop_assert_ne!(fingerprint(&transposed), base_fp);
        }
    }

    #[test]
    fn negative_zero_and_nan_bit_patterns_are_distinct(body in body_strategy()) {
        // The key is bit-exact: 0.0 vs -0.0 and different NaN payloads
        // are different keys. (Such values are rejected upstream by
        // validation; the *fingerprint* must still distinguish them so
        // the cache layer never has to reason about float semantics.)
        let RequestBody::Plan(plan) = &body else { unreachable!() };
        let mut zero = plan.clone();
        zero.solve.times[0] = 0.0;
        let mut negzero = plan.clone();
        negzero.solve.times[0] = -0.0;
        prop_assert_ne!(
            cache_key(&RequestBody::Plan(zero)).unwrap(),
            cache_key(&RequestBody::Plan(negzero)).unwrap()
        );
    }
}

/// Cross-run stability: the fingerprint of a pinned request must never
/// change across builds or processes (it indexes any future persistent
/// cache, and a silent change would orphan every entry). If this test
/// fails, the canonical key layout changed — bump the protocol
/// version and update the pinned value deliberately.
#[test]
fn pinned_fingerprint_is_stable_across_runs() {
    let body = RequestBody::Plan(PlanSpec {
        solve: SolveSpec {
            p: 2,
            q: 2,
            times: vec![1.0, 2.0, 3.0, 5.0],
        },
        kernel: Kernel::Lu,
        nb: 8,
    });
    let key = cache_key(&body).unwrap();
    let fp = fingerprint(&key);
    assert_eq!(
        format!("{fp}"),
        "66ee3e3e8944afeeb336370c1f7692b1",
        "canonical key layout changed; see fingerprint.rs normalization rules"
    );
}
