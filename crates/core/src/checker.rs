//! One breadth-first checker for the crate's pure state machines
//! (`remote::membership::Membership`, `serve::Admission`): every state
//! a transition function can reach from a start state, each judged
//! once, with the shortest event trace to the first one that breaks an
//! invariant.

#![cfg(test)]

use std::collections::HashSet;
use std::hash::Hash;

/// A broken invariant and the event sequence that reaches it from the
/// start state.
#[derive(Debug)]
pub(crate) struct Violation<E> {
    pub(crate) trace: Vec<E>,
    pub(crate) message: String,
}

/// Breadth-first over every state `step` can reach from `start` by
/// `events`, so the first violation found has a shortest trace. `edge`
/// judges every transition `(before, event, after)`; `check` judges the
/// start state and every state whose `key` is new. Returns the number
/// of states and the depth of the deepest one.
pub(crate) fn explore<S: Clone, E: Copy, K: Hash + Eq>(
    start: S,
    events: &[E],
    key: impl Fn(&S) -> K,
    step: impl Fn(&mut S, E),
    edge: impl Fn(&S, E, &S) -> Result<(), String>,
    check: impl Fn(&S) -> Result<(), String>,
) -> Result<(usize, usize), Violation<E>> {
    check(&start).map_err(|message| Violation {
        trace: Vec::new(),
        message,
    })?;
    let mut seen = HashSet::from([key(&start)]);
    // (state, depth, parent node and the event that led here)
    let mut nodes = vec![(start, 0usize, None::<(usize, E)>)];
    let mut next = 0;
    while next < nodes.len() {
        for &event in events {
            let (before, depth) = (&nodes[next].0, nodes[next].1);
            let mut after = before.clone();
            step(&mut after, event);
            let verdict = match edge(before, event, &after) {
                Ok(()) if seen.insert(key(&after)) => check(&after),
                Ok(()) => continue,
                broken => broken,
            };
            nodes.push((after, depth + 1, Some((next, event))));
            if let Err(message) = verdict {
                let mut trace = Vec::new();
                let mut at = nodes.len() - 1;
                while let Some((parent, event)) = nodes[at].2 {
                    trace.push(event);
                    at = parent;
                }
                trace.reverse();
                return Err(Violation { trace, message });
            }
        }
        next += 1;
    }
    let depth = nodes.iter().map(|node| node.1).max().unwrap_or(0);
    Ok((nodes.len(), depth))
}
