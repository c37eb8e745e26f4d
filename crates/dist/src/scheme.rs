//! From a solved placement to a distribution: the `--scheme` vocabulary
//! and the panel-period rule, written once for the CLI, the service and
//! the library facade.

use crate::{BlockCyclic, BlockDist, KlDist, PanelDist, PanelOrdering};
use hetgrid_core::{Allocation, Arrangement};

impl PanelOrdering {
    /// The orderings `--ordering` names, in the order usage texts list
    /// them (`SuffixInterleaved` has no CLI name, so this is a table and
    /// not an `ALL` + `name()` pair like [`Scheme`]'s).
    pub const NAMED: [(&'static str, PanelOrdering); 3] = [
        ("interleaved", PanelOrdering::Interleaved),
        ("contiguous", PanelOrdering::Contiguous),
        ("columns", PanelOrdering::ColumnsInterleaved),
    ];
}

/// Which of the paper's three distributions realizes a placement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scheme {
    /// The heterogeneous block-panel-cyclic distribution (Section 3).
    Panel(PanelOrdering),
    /// Kalinov–Lastovetsky's heterogeneous block-cyclic distribution.
    Kl,
    /// Uniform ScaLAPACK block-cyclic, the homogeneous baseline.
    Cyclic,
}

impl Scheme {
    /// The three schemes in the order usage texts list them;
    /// `ordering` is the panel scheme's.
    pub fn all(ordering: PanelOrdering) -> [Scheme; 3] {
        [Scheme::Panel(ordering), Scheme::Kl, Scheme::Cyclic]
    }

    /// CLI-facing name (`panel`, `kl`, `cyclic`).
    pub fn name(self) -> &'static str {
        match self {
            Scheme::Panel(_) => "panel",
            Scheme::Kl => "kl",
            Scheme::Cyclic => "cyclic",
        }
    }

    /// Parses a CLI-facing name; `ordering` is the panel scheme's.
    pub fn parse(s: &str, ordering: PanelOrdering) -> Option<Scheme> {
        Self::all(ordering).into_iter().find(|x| x.name() == s)
    }

    /// This scheme's distribution of a solved placement with a
    /// `bp x bq` period (KL's period is at least one block per grid
    /// line; the uniform scheme has no period).
    pub fn build(
        self,
        arr: &Arrangement,
        alloc: &Allocation,
        bp: usize,
        bq: usize,
    ) -> Box<dyn BlockDist + Sync> {
        match self {
            Scheme::Panel(ordering) => {
                Box::new(PanelDist::from_allocation(arr, alloc, bp, bq, ordering))
            }
            Scheme::Kl => Box::new(KlDist::new(arr, bp.max(arr.p()), bq.max(arr.q()))),
            Scheme::Cyclic => Box::new(BlockCyclic::new(arr.p(), arr.q())),
        }
    }
}

/// The panel period a plan over `nb` blocks per matrix side uses along
/// a grid dimension of `lines` rows (or columns): up to four panel
/// lines per grid line, clamped to the block count, at least one per
/// grid line. Deterministic in the request, so a cached plan is
/// reproducible; `benchmark/` re-derives served plans with a frozen
/// copy of this rule.
pub fn panel_period(nb: usize, lines: usize) -> usize {
    nb.min(4 * lines).max(lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        let ordering = PanelOrdering::Contiguous;
        for scheme in Scheme::all(ordering) {
            assert_eq!(Scheme::parse(scheme.name(), ordering), Some(scheme));
        }
        assert_eq!(Scheme::parse("hilbert", ordering), None);
    }

    #[test]
    fn panel_period_clamps_to_the_block_count_and_the_grid() {
        assert_eq!(panel_period(64, 4), 16);
        assert_eq!(panel_period(6, 2), 6);
        assert_eq!(panel_period(1, 2), 2);
    }
}
