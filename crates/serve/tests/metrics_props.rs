//! Property test: a `Metrics` response reproduces the server's
//! snapshot bit-exactly through the serve codec, for arbitrary
//! (including hostile) metric names and arbitrary `f64` bits: NaN
//! payloads, signed zeros and infinities included.

use hetgrid_obs::metrics::{HistogramSnapshot, MetricsSnapshot};
use hetgrid_serve::proto::{decode_response, encode_response, Response};
use proptest::prelude::*;

/// Characters spanning identifiers, separators, quoting and escaping
/// characters and multi-byte UTF-8.
const PALETTE: &[char] = &[
    'a', 'Z', '9', '.', '_', ':', '-', '"', '\\', '\n', ' ', '{', '}', ',', '=', '#', 'µ',
];

fn name() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..PALETTE.len(), 0..14)
        .prop_map(|ix| ix.into_iter().map(|i| PALETTE[i]).collect())
}

/// Any `f64`, weighted towards the values a text or float-parsing
/// codec would lose: NaNs with payloads and either sign, `±0`, `±inf`.
fn any_f64() -> impl Strategy<Value = f64> {
    (0usize..6, 0u64..u64::MAX).prop_map(|(k, bits)| match k {
        0 => f64::from_bits(0x7ff8_0000_0000_0000 | (bits & 0xffff)),
        1 => f64::from_bits(bits | 0xfff0_0000_0000_0001),
        2 => [0.0, -0.0][(bits & 1) as usize],
        3 => [f64::INFINITY, f64::NEG_INFINITY][(bits & 1) as usize],
        _ => f64::from_bits(bits),
    })
}

fn histogram() -> impl Strategy<Value = HistogramSnapshot> {
    (
        prop::collection::vec(any_f64(), 0..6),
        prop::collection::vec(0u64..u64::MAX, 0..8),
        0u64..u64::MAX,
        any_f64(),
    )
        .prop_map(|(bounds, buckets, count, sum)| HistogramSnapshot {
            bounds,
            buckets,
            count,
            sum,
        })
}

/// Every `f64` as its bits, so equality is bit equality.
type Bits = (
    Vec<(String, u64)>,
    Vec<(String, u64)>,
    Vec<(String, Vec<u64>, Vec<u64>, u64, u64)>,
);

fn bits(s: &MetricsSnapshot) -> Bits {
    (
        s.counters.iter().map(|(n, v)| (n.clone(), *v)).collect(),
        s.gauges
            .iter()
            .map(|(n, v)| (n.clone(), v.to_bits()))
            .collect(),
        s.histograms
            .iter()
            .map(|(n, h)| {
                let bounds = h.bounds.iter().map(|b| b.to_bits()).collect();
                (
                    n.clone(),
                    bounds,
                    h.buckets.clone(),
                    h.count,
                    h.sum.to_bits(),
                )
            })
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn metrics_response_round_trips_bit_exactly(
        counters in prop::collection::vec((name(), 0u64..u64::MAX), 0..8),
        gauges in prop::collection::vec((name(), any_f64()), 0..8),
        hists in prop::collection::vec((name(), histogram()), 0..4),
    ) {
        let snap = MetricsSnapshot {
            counters: counters.into_iter().collect(),
            gauges: gauges.into_iter().collect(),
            histograms: hists.into_iter().collect(),
        };
        let bytes = encode_response(&Response::Metrics(snap.clone()));
        let back = match decode_response(&bytes) {
            Ok(Response::Metrics(back)) => back,
            other => panic!("a Metrics response decoded as {other:?}"),
        };
        prop_assert_eq!(bits(&back), bits(&snap));
        // One encoding per snapshot: the decoded one re-encodes to the
        // same bytes.
        prop_assert_eq!(encode_response(&Response::Metrics(back)), bytes);
    }
}
