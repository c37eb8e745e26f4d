//! Content-addressed cache keys for solve/plan/simulate requests.
//!
//! ## Normalization rules
//!
//! Two requests share a cache entry iff their *canonical key bytes*
//! are equal. The key is built field-by-field in a fixed order with the
//! [`hetgrid_plan::wire`] codec — never by hashing in-memory
//! structures — so it is stable across runs, platforms, and `HashMap`
//! iteration orders:
//!
//! 1. request kind byte (solve / plan / simulate are distinct spaces);
//! 2. kernel byte and varint block count (plan/simulate only);
//! 3. varint grid rows, varint grid cols;
//! 4. each cycle-time as its raw IEEE-754 bit pattern (`f64::to_bits`,
//!    little-endian), row-major.
//!
//! A varint has one encoding per value and the kind byte fixes which
//! fields follow, so two distinct specs never share key bytes.
//!
//! Cycle-times are compared *up to bit pattern*: `1.0` and
//! `1.0 + 1e-18` are different keys (the solver is deterministic in
//! the bits it is given, so anything fuzzier would conflate genuinely
//! different problems), and `-0.0` differs from `0.0` (both are
//! rejected upstream by validation anyway). The tenant id is
//! deliberately excluded — the solver is a pure function of the spec,
//! so tenants share the cache.
//!
//! The 128-bit FNV-1a fingerprint of the key bytes is the cache index;
//! the full key rides along in the entry and is compared on every hit,
//! so even a fingerprint collision cannot return the wrong plan (it
//! degrades to a cache miss).

use crate::proto::RequestBody;
use hetgrid_plan::wire::Field;

/// 128-bit FNV-1a offset basis.
const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
/// 128-bit FNV-1a prime.
const FNV_PRIME: u128 = 0x0000000001000000000000000000013B;

/// A 128-bit content fingerprint (FNV-1a over canonical key bytes).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u128);

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// FNV-1a over `bytes`.
pub fn fingerprint(bytes: &[u8]) -> Fingerprint {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u128;
        h = h.wrapping_mul(FNV_PRIME);
    }
    Fingerprint(h)
}

/// Canonical key bytes for a request body, or `None` for the kinds
/// that are not cacheable (metrics, shutdown).
pub fn cache_key(body: &RequestBody) -> Option<Vec<u8>> {
    let mut out = Vec::with_capacity(16);
    out.push(body.kind_byte());
    let spec = match body {
        RequestBody::Solve(spec) => spec,
        RequestBody::Plan(plan) | RequestBody::Simulate(plan) => {
            out.push(plan.kernel.as_u8());
            plan.nb.put(&mut out);
            &plan.solve
        }
        RequestBody::Metrics(_) | RequestBody::Shutdown => return None,
    };
    (spec.p, spec.q).put(&mut out);
    for t in &spec.times {
        t.put(&mut out);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{Kernel, PlanSpec, SolveSpec};

    fn plan_body() -> RequestBody {
        RequestBody::Plan(PlanSpec {
            solve: SolveSpec {
                p: 2,
                q: 2,
                times: vec![1.0, 2.0, 3.0, 5.0],
            },
            kernel: Kernel::Lu,
            nb: 8,
        })
    }

    #[test]
    fn fnv1a_128_matches_known_vectors() {
        // Standard FNV-1a 128 test vectors.
        assert_eq!(fingerprint(b"").0, FNV_OFFSET);
        assert_eq!(fingerprint(b"a").0, 0xd228cb696f1a8caf78912b704e4a8964_u128);
    }

    #[test]
    fn tenant_never_enters_the_key() {
        // cache_key takes only the body, so this is structural; pin it
        // with an assertion on the key contents anyway.
        let key = cache_key(&plan_body()).unwrap();
        assert!(!key.windows(4).any(|w| w == b"team"));
    }

    #[test]
    fn kind_kernel_nb_and_shape_all_discriminate() {
        let base = plan_body();
        let base_key = cache_key(&base).unwrap();
        let mut variants = Vec::new();
        if let RequestBody::Plan(p) = &base {
            variants.push(RequestBody::Simulate(p.clone()));
            let mut v = p.clone();
            v.kernel = Kernel::Qr;
            variants.push(RequestBody::Plan(v));
            let mut v = p.clone();
            v.nb += 1;
            variants.push(RequestBody::Plan(v));
            let mut v = p.clone();
            v.solve = SolveSpec {
                p: 4,
                q: 1,
                times: v.solve.times.clone(),
            };
            variants.push(RequestBody::Plan(v));
            let mut v = p.clone();
            v.solve.times[2] = 3.0000000001;
            variants.push(RequestBody::Plan(v));
        }
        for v in variants {
            assert_ne!(cache_key(&v).unwrap(), base_key, "{v:?}");
        }
    }

    #[test]
    fn uncacheable_kinds_have_no_key() {
        assert_eq!(
            cache_key(&RequestBody::Metrics(crate::proto::MetricsFormat::Json)),
            None
        );
        assert_eq!(cache_key(&RequestBody::Shutdown), None);
    }
}
