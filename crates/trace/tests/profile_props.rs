//! Property tests for the profiler: the self ≤ total invariant holds at
//! every tree node for arbitrary (even adversarial) span forests, folded
//! text survives a parse/render round trip, and per-device
//! busy/idle fractions always partition the window.

use ftn_trace::{device_utilization, Args, LaneSnapshot, Profile, ProfileNode, SpanEvent};
use proptest::prelude::*;

/// A randomized span: its parent is picked (by index) among earlier spans
/// or none, so the forest has arbitrary shape; lanes split round-robin so
/// parents routinely live on other lanes (the cross-thread case).
fn arb_events(max: usize) -> impl Strategy<Value = Vec<SpanEvent>> {
    proptest::collection::vec(
        (
            0usize..6,         // name pick
            0usize..1_000_000, // parent pick (index among predecessors, or root)
            0u64..2_000,       // start
            0u64..1_000,       // duration
        ),
        1..max,
    )
    .prop_map(|rows| {
        let names = [
            "http.request",
            "session.launch",
            "job.kernel",
            "job.upload",
            "kernel.execute",
            "job.halo_refresh",
        ];
        rows.into_iter()
            .enumerate()
            .map(|(i, (name, parent_pick, start, dur))| {
                let parent_id = if i == 0 || parent_pick % 3 == 0 {
                    0
                } else {
                    1 + (parent_pick % i) as u64
                };
                SpanEvent {
                    name: names[name],
                    cat: "worker",
                    trace_id: 1,
                    span_id: 1 + i as u64,
                    parent_id,
                    start_nanos: start,
                    dur_nanos: dur,
                    args: Args::new(),
                }
            })
            .collect()
    })
}

fn lanes_of(events: Vec<SpanEvent>, lane_count: usize) -> Vec<LaneSnapshot> {
    let mut lanes: Vec<LaneSnapshot> = (0..lane_count)
        .map(|i| LaneSnapshot {
            lane: i,
            name: format!("ftn-device-{i}"),
            events: Vec::new(),
        })
        .collect();
    for (i, e) in events.into_iter().enumerate() {
        lanes[i % lane_count].events.push(e);
    }
    lanes
}

fn check_invariant(node: &ProfileNode) -> Result<(), TestCaseError> {
    prop_assert!(
        node.self_nanos <= node.total_nanos,
        "node '{}': self {} > total {}",
        node.name,
        node.self_nanos,
        node.total_nanos
    );
    for child in node.children.values() {
        check_invariant(child)?;
    }
    Ok(())
}

/// Counts are a from-lanes property only (folded text does not carry them):
/// every aggregated node must have merged at least one span.
fn check_counts(node: &ProfileNode) -> Result<(), TestCaseError> {
    prop_assert!(node.count > 0, "node '{}' merged no spans", node.name);
    for child in node.children.values() {
        check_counts(child)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// self ≤ total at every node, for any span forest, any lane split and
    /// any (possibly clipping, possibly inverted) window.
    #[test]
    fn self_time_never_exceeds_total(
        events in arb_events(40),
        lane_count in 1usize..5,
        edge_a in 0u64..3_000,
        edge_b in 0u64..3_000,
    ) {
        let lanes = lanes_of(events, lane_count);
        let (since, until) = (edge_a.min(edge_b), edge_a.max(edge_b));
        let profile = Profile::from_lanes(&lanes, since, until);
        for root in profile.roots.values() {
            check_invariant(root)?;
            check_counts(root)?;
        }
    }

    /// Folded text is a fixed point: parse(folded) renders back the exact
    /// same text, and its tree still satisfies the self/total invariant.
    #[test]
    fn folded_round_trips_through_the_parser(
        events in arb_events(40),
        lane_count in 1usize..5,
    ) {
        let lanes = lanes_of(events, lane_count);
        let profile = Profile::from_lanes(&lanes, 0, u64::MAX - 1);
        let folded = profile.folded();
        let reparsed = Profile::parse_folded(&folded).expect("own output parses");
        prop_assert_eq!(reparsed.folded(), folded);
        for root in reparsed.roots.values() {
            check_invariant(root)?;
        }
    }

    /// busy + idle partitions the window exactly (in nanoseconds) and the
    /// fractions sum to 1 within float rounding — under arbitrary
    /// overlapping job spans per device lane, the shape a burst of
    /// concurrent sharded launches produces.
    #[test]
    fn utilization_fractions_partition_the_window(
        events in arb_events(60),
        lane_count in 1usize..5,
        edge_a in 0u64..3_000,
        edge_b in 0u64..3_000,
    ) {
        let lanes = lanes_of(events, lane_count);
        let (since, until) = (edge_a.min(edge_b), edge_a.max(edge_b));
        let split = device_utilization(&lanes, since, until);
        for d in &split {
            prop_assert_eq!(
                d.busy_nanos + d.idle_nanos,
                d.window_nanos,
                "device {} does not partition the window", d.device
            );
            let sum = d.busy_fraction() + d.idle_fraction();
            prop_assert!(
                sum <= 1.0 + 1e-9,
                "device {}: fractions sum to {} > 1", d.device, sum
            );
            prop_assert!(d.busy_fraction() >= 0.0 && d.idle_fraction() >= 0.0);
        }
    }
}
