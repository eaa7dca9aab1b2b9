//! Property-based tests: the columnar (struct-of-arrays) layout is a lossless
//! transpose of the array-of-structs segment store.

use proptest::prelude::*;
use tdts_geom::{Point3, SegId, Segment, SegmentColumns, TrajId};

fn arb_segment() -> impl Strategy<Value = Segment> {
    (
        (-1e6f64..1e6, -1e6f64..1e6, -1e6f64..1e6),
        (-1e6f64..1e6, -1e6f64..1e6, -1e6f64..1e6),
        -1e4f64..1e4,
        0.0f64..1e3,
        0u32..u32::MAX,
        0u32..u32::MAX,
    )
        .prop_map(|((sx, sy, sz), (ex, ey, ez), t0, dt, sid, tid)| {
            Segment::new(
                Point3::new(sx, sy, sz),
                Point3::new(ex, ey, ez),
                t0,
                t0 + dt,
                SegId(sid),
                TrajId(tid),
            )
        })
}

proptest! {
    /// Round trip: AoS → columns → AoS is the identity, bit for bit.
    #[test]
    fn columns_round_trip(segs in proptest::collection::vec(arb_segment(), 0..64)) {
        let cols = SegmentColumns::from_segments(&segs);
        prop_assert_eq!(cols.len(), segs.len());
        prop_assert_eq!(cols.to_segments(), segs);
    }

    /// Every f64 column holds exactly the corresponding scalar field, in the
    /// canonical device order (start x/y/z, end x/y/z, t_start, t_end).
    #[test]
    fn f64_columns_match_fields(segs in proptest::collection::vec(arb_segment(), 1..64)) {
        let cols = SegmentColumns::from_segments(&segs);
        let f = cols.f64_columns();
        for (i, s) in segs.iter().enumerate() {
            let expect = [s.start.x, s.start.y, s.start.z, s.end.x, s.end.y, s.end.z,
                          s.t_start, s.t_end];
            for (col, want) in f.iter().zip(expect) {
                prop_assert_eq!(col[i].to_bits(), want.to_bits());
            }
        }
    }
}
