//! Property tests for `hetgrid_exec::store`: scatter/gather identity
//! over random distributions and block geometries, and the checkpoint
//! log's consistent-cut semantics against an in-order replay oracle.

use hetgrid_exec::store::BlockStore;
use hetgrid_exec::{CheckpointLog, DistributedMatrix};
use hetgrid_harness::scenario::{general_matrix, random_arrangement, random_dist};
use hetgrid_linalg::Matrix;
use proptest::prelude::*;
use rand::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Scatter then gather is the identity, bit-exactly, for any of the
    /// four distribution families over any grid the harness draws — and
    /// every block lands exactly where the distribution says.
    #[test]
    fn scatter_gather_roundtrip(seed in 0u64..1_000_000_000, nb in 1usize..=8, r in 1usize..=4) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (p, q) = [(2, 2), (2, 3), (3, 2), (3, 3)][rng.gen_range(0..4usize)];
        let arr = random_arrangement(&mut rng, p, q);
        let (dist, _) = random_dist(&mut rng, &arr);
        let m = general_matrix(&mut rng, nb * r, nb * r);

        let dm = DistributedMatrix::scatter(&m, dist.as_ref(), nb, r);
        for bi in 0..nb {
            for bj in 0..nb {
                let (oi, oj) = dist.owner(bi, bj);
                prop_assert!(
                    dm.store(oi, oj).contains_key(&(bi, bj)),
                    "block ({bi}, {bj}) missing from its owner ({oi}, {oj})"
                );
            }
        }
        let blocks: usize = (0..p * q).map(|id| dm.stores[id].len()).sum();
        prop_assert_eq!(blocks, nb * nb, "scatter duplicated or dropped blocks");
        prop_assert!(dm.gather().approx_eq(&m, 0.0), "gather diverged from the source");
    }

    /// The checkpoint log's consistent cut equals an in-order replay:
    /// record block versions in an arbitrary (shuffled) order, then for
    /// *every* cut `f`, `state_at(f)` must match applying exactly the
    /// writes with `step < f` to the base in step order. This is the
    /// property recovery rests on — the journal may be appended to in
    /// any thread interleaving, yet every snapshot is the state an
    /// in-order run would hold.
    #[test]
    fn checkpoint_cut_matches_in_order_replay(
        seed in 0u64..1_000_000_000,
        nb in 1usize..=4,
        n_writes in 0usize..24,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_steps = 6usize;
        let n_procs = 4usize;

        // Base content: every block starts as a distinct 1x1 value.
        let base: BlockStore = (0..nb)
            .flat_map(|bi| (0..nb).map(move |bj| (bi, bj)))
            .map(|b| (b, Matrix::from_fn(1, 1, |_, _| (b.0 * nb + b.1) as f64)))
            .collect();

        // Unique (block, step) writes — one owner per block and step,
        // exactly the uniqueness the executor's conflict rules give.
        let mut writes: Vec<((usize, usize), usize, f64)> = Vec::new();
        let mut used = std::collections::HashSet::new();
        for _ in 0..n_writes {
            let block = (rng.gen_range(0..nb), rng.gen_range(0..nb));
            let step = rng.gen_range(0..n_steps);
            if used.insert((block, step)) {
                writes.push((block, step, rng.gen_range(-100.0..100.0)));
            }
        }

        // Record in shuffled order.
        let log = CheckpointLog::new(n_procs, 0);
        let mut shuffled = writes.clone();
        for i in (1..shuffled.len()).rev() {
            let j = rng.gen_range(0..=i);
            shuffled.swap(i, j);
        }
        for &(block, step, v) in &shuffled {
            log.record(step, block, &Matrix::from_fn(1, 1, |_, _| v));
        }

        for f in 0..=n_steps {
            // Oracle: replay the writes below the cut in step order.
            let mut expect: std::collections::HashMap<(usize, usize), f64> = base
                .iter()
                .map(|(&b, m)| (b, m[(0, 0)]))
                .collect();
            let mut ordered = writes.clone();
            ordered.sort_by_key(|&(_, step, _)| step);
            for &(block, step, v) in &ordered {
                if step < f {
                    expect.insert(block, v);
                }
            }

            let cut = log.state_at(f, &base);
            prop_assert_eq!(cut.len(), base.len(), "cut lost or invented blocks");
            for (&block, data) in &cut {
                prop_assert_eq!(
                    data[(0, 0)],
                    expect[&block],
                    "cut at f={} disagrees with in-order replay on block {:?}",
                    f,
                    block
                );
            }
        }
    }

    /// The retirement frontier is the minimum over all processors, no
    /// matter the order the notes arrive in, and `note_retired` never
    /// moves a frontier backwards.
    #[test]
    fn frontier_is_min_retirement(
        seed in 0u64..1_000_000_000,
        n_procs in 1usize..=6,
        n_notes in 0usize..32,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let start = rng.gen_range(0..3usize);
        let log = CheckpointLog::new(n_procs, start);
        let mut retired = vec![start; n_procs];
        for _ in 0..n_notes {
            let proc = rng.gen_range(0..n_procs);
            let front = rng.gen_range(0..8usize);
            log.note_retired(proc, front);
            retired[proc] = retired[proc].max(front + 1);
            prop_assert_eq!(
                log.frontier(),
                retired.iter().copied().min().unwrap(),
                "frontier is not the min retirement"
            );
        }
    }
}
