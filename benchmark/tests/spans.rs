//! Span self time with nested and overlapping children.

use spq_benchmark::spans::{self_times_ns, Span, Tracer};

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
        request_id: 1,
    }
}

#[test]
fn nested_children_are_subtracted_once_per_level() {
    // request [0,100) > tick [10,90) > job [20,80)
    let spans = vec![
        span("request", 0, 100, None),
        span("tick", 10, 90, Some(0)),
        span("job", 20, 80, Some(1)),
    ];
    assert_eq!(self_times_ns(&spans), vec![20, 20, 60]);
    // Self times partition the root: nothing is counted twice.
    assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
}

#[test]
fn overlapping_children_cover_their_union() {
    // Two shard spans overlap on [40,60): the parent is covered on
    // [10,90), not on 50 + 50.
    let spans = vec![
        span("scatter", 0, 100, None),
        span("shard0", 10, 60, Some(0)),
        span("shard1", 40, 90, Some(0)),
    ];
    assert_eq!(self_times_ns(&spans)[0], 20);
}

#[test]
fn children_are_clipped_to_the_parent() {
    // A program-reported child that claims more than its parent's
    // interval cannot push the parent's self time below zero.
    let spans = vec![
        span("tick", 100, 200, None),
        span("engine", 50, 250, Some(0)),
        span("outside", 300, 400, Some(0)),
    ];
    assert_eq!(self_times_ns(&spans), vec![0, 200, 100]);
}

#[test]
fn disjoint_children_in_any_order() {
    let spans = vec![
        span("root", 0, 100, None),
        span("late", 70, 80, Some(0)),
        span("early", 10, 30, Some(0)),
        span("contained", 12, 20, Some(0)), // inside `early`
    ];
    assert_eq!(self_times_ns(&spans)[0], 70);
}

#[test]
fn tracer_records_parent_and_request() {
    let mut tracer = Tracer::new();
    let root = tracer.open("request", 7, None);
    let (child, value) = tracer.record("serve.submit", 7, Some(root), || 42);
    tracer.close(root);
    assert_eq!(value, 42);
    let spans = tracer.spans();
    assert_eq!(spans[child].parent, Some(root));
    assert_eq!(spans[child].request_id, 7);
    assert!(spans[root].start_ns <= spans[child].start_ns);
    assert!(spans[child].end_ns <= spans[root].end_ns);
    assert_eq!(tracer.durations_ns("serve.submit").len(), 1);
}
