//! The membership machine: worker states, probe hysteresis, shard
//! placement. Pure book-keeping — no socket, no lock, no clock. The
//! engine holds one [`Membership`] behind a mutex and only ever does
//! *lock → report an event or ask for a decision → unlock → perform the
//! I/O it was told to*; every state change is a method here, so the whole
//! policy can be enumerated without a worker in sight (see the tests).

use crate::executor::SpqError;

/// Environment variable overriding
/// [`MembershipConfig::replication_factor`] for engines built through
/// [`crate::service::SpqService::build`] /
/// [`RemoteEngine::build`](super::RemoteEngine::build):
/// `SPQ_REPLICATION_FACTOR=3` keeps every shard warm on three workers.
/// Must parse as a decimal integer ≥ 1.
pub const SPQ_REPLICATION_FACTOR: &str = "SPQ_REPLICATION_FACTOR";

/// Consecutive successful probes an excluded worker needs before
/// re-admission — the hysteresis that keeps a flapping worker from
/// thrashing the placement.
const READMIT_THRESHOLD: u32 = 2;

/// Where one worker stands in the membership state machine (see the
/// [module docs](super) for the transition diagram).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerState {
    /// In rotation: serves the shards placed on it.
    Live,
    /// One transport failure seen; retried once before exclusion.
    Suspect,
    /// Out of rotation; pinged on every tick.
    Excluded,
    /// Excluded, but with a streak of successful probes building toward
    /// re-admission.
    Probing,
}

impl WorkerState {
    /// True when the worker may be asked to serve (live or suspect).
    pub fn is_available(self) -> bool {
        matches!(self, WorkerState::Live | WorkerState::Suspect)
    }
}

/// Tuning knobs for the membership layer. All defaults are safe for
/// production; tests tighten them for speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MembershipConfig {
    /// How many workers hold a warm copy of each shard (capped by the
    /// number of available workers). With ≥ 2, a worker death fails over
    /// by flipping the placement pointer instead of re-shipping the
    /// shard's dataset.
    pub replication_factor: usize,
    /// Upper bound on provision round-trips the rebalancer performs per
    /// tick, so a bulk migration never stalls serving.
    pub max_moves_per_tick: usize,
}

impl Default for MembershipConfig {
    fn default() -> Self {
        Self {
            replication_factor: 2,
            max_moves_per_tick: 2,
        }
    }
}

impl MembershipConfig {
    /// Applies the [`SPQ_REPLICATION_FACTOR`] environment override.
    pub(super) fn from_env() -> Result<Self, SpqError> {
        let mut config = Self::default();
        if let Ok(raw) = std::env::var(SPQ_REPLICATION_FACTOR) {
            let trimmed = raw.trim();
            if !trimmed.is_empty() {
                config.replication_factor = match trimmed.parse::<usize>() {
                    Ok(n) if n >= 1 => n,
                    _ => {
                        return Err(SpqError::invalid_config(format!(
                            "{SPQ_REPLICATION_FACTOR}: bad replication factor {raw:?} (want an \
                             integer >= 1)"
                        )))
                    }
                };
            }
        }
        Ok(config)
    }
}

/// A snapshot of the membership layer, for observability and tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MembershipView {
    /// Per-worker state, worker order.
    pub states: Vec<WorkerState>,
    /// Per-shard primary worker.
    pub primaries: Vec<usize>,
    /// Per-shard warm-replica holders (sorted; includes the primary once
    /// placement has settled).
    pub replicas: Vec<Vec<usize>>,
    /// Ticks the engine has seen.
    pub ticks: u64,
}

/// What one [`RemoteEngine::tick`](super::RemoteEngine::tick) did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TickReport {
    /// Excluded workers probed this tick.
    pub probes: usize,
    /// Probes that came back healthy.
    pub probe_successes: usize,
    /// Workers re-admitted this tick (hysteresis satisfied).
    pub readmitted: Vec<usize>,
    /// Provision round-trips the rebalancer performed (≤ the budget).
    pub provisions: usize,
    /// Primary pointers flipped to restore the canonical layout.
    pub primary_flips: usize,
}

impl TickReport {
    /// True when the tick had nothing to do: no excluded workers to
    /// probe and a placement already matching the canonical layout.
    pub fn quiescent(&self) -> bool {
        self.probes == 0
            && self.probe_successes == 0
            && self.readmitted.is_empty()
            && self.provisions == 0
            && self.primary_flips == 0
    }
}

/// How a shard whose primary cannot answer gets a new one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Failover {
    /// A warm replica took over: the primary pointer already points at
    /// it, no data crosses the wire.
    Warm,
    /// No warm replica is available: install the shard on this survivor,
    /// then report [`Membership::promoted`].
    Cold(usize),
}

/// Worker states, probe streaks, the per-shard primary pointer and the
/// warm-replica map. Every transition is a method; nothing outside this
/// module reads or writes a field.
#[derive(Debug, Clone)]
pub(super) struct Membership {
    config: MembershipConfig,
    states: Vec<WorkerState>,
    probe_streak: Vec<u32>,
    /// Which worker answers each shard's queries.
    primary: Vec<usize>,
    /// Workers believed to hold a warm, current copy of each shard
    /// (provision payloads are immutable, so any installed copy stays
    /// valid). Sorted, and pruned of a worker the moment it is excluded.
    replicas: Vec<Vec<usize>>,
    ticks: u64,
}

impl Membership {
    /// `workers` live workers and `shards` shards, shard `s` pointed at
    /// worker `s % workers`, no copy recorded yet.
    pub(super) fn new(config: MembershipConfig, workers: usize, shards: usize) -> Self {
        Self {
            config,
            states: vec![WorkerState::Live; workers],
            probe_streak: vec![0; workers],
            primary: (0..shards).map(|s| s % workers).collect(),
            replicas: vec![Vec::new(); shards],
            ticks: 0,
        }
    }

    pub(super) fn config(&self) -> MembershipConfig {
        self.config
    }

    pub(super) fn view(&self) -> MembershipView {
        MembershipView {
            states: self.states.clone(),
            primaries: self.primary.clone(),
            replicas: self.replicas.clone(),
            ticks: self.ticks,
        }
    }

    fn available(&self, w: usize) -> bool {
        self.states[w].is_available()
    }

    fn workers_where(&self, available: bool) -> Vec<usize> {
        (0..self.states.len())
            .filter(|&w| self.available(w) == available)
            .collect()
    }

    /// Workers out of rotation (`Excluded` or `Probing`), ascending.
    pub(super) fn unavailable_workers(&self) -> Vec<usize> {
        self.workers_where(false)
    }

    /// The canonical layout: shard `s` belongs on the available workers
    /// `avail[(s + j) % avail.len()]` for `j in 0..r` — the PR 5
    /// placement generalized to replicas and to a worker set that grows
    /// and shrinks. `targets[0]` is the desired primary.
    fn targets(&self, shard: usize) -> Vec<usize> {
        let avail = self.workers_where(true);
        let r = self.config.replication_factor.min(avail.len());
        (0..r).map(|j| avail[(shard + j) % avail.len()]).collect()
    }

    /// Takes `w` out of rotation: streak reset, every warm-copy entry
    /// purged (a copy on a worker that may restart empty is not a copy).
    pub(super) fn exclude(&mut self, w: usize) {
        self.states[w] = WorkerState::Excluded;
        self.probe_streak[w] = 0;
        for holders in &mut self.replicas {
            holders.retain(|&x| x != w);
        }
    }

    /// A call to `w` succeeded: a suspect worker is vindicated.
    pub(super) fn call_ok(&mut self, w: usize) {
        if self.states[w] == WorkerState::Suspect {
            self.states[w] = WorkerState::Live;
        }
    }

    /// A call to `w` failed in transport. The first strike makes a live
    /// worker suspect (retry it once); the second excludes it. Returns
    /// `true` when the worker is out of rotation now.
    pub(super) fn transport_failure(&mut self, w: usize) -> bool {
        match self.states[w] {
            WorkerState::Live => {
                self.states[w] = WorkerState::Suspect;
                false
            }
            WorkerState::Suspect => {
                self.exclude(w);
                true
            }
            WorkerState::Excluded | WorkerState::Probing => true,
        }
    }

    /// A healthy worker said it does not host `shard`: the entry was
    /// stale (the process restarted empty and was re-admitted before the
    /// loss was observed).
    pub(super) fn stale_replica_dropped(&mut self, shard: usize, w: usize) {
        self.replicas[shard].retain(|&x| x != w);
    }

    /// `shard` was installed on `w`. Recorded only while `w` is still in
    /// rotation: a worker excluded while the provision was in flight had
    /// its entries purged *at* exclusion, and one added now would outlive
    /// that purge and could go stale across a restart.
    pub(super) fn installed(&mut self, shard: usize, w: usize) {
        if self.available(w) {
            if let Err(at) = self.replicas[shard].binary_search(&w) {
                self.replicas[shard].insert(at, w);
            }
        }
    }

    /// The worker to ask for `shard`, if its primary is in rotation.
    pub(super) fn primary(&self, shard: usize) -> Option<usize> {
        let w = self.primary[shard];
        self.available(w).then_some(w)
    }

    /// Picks a new primary for `shard`. Prefers an available warm replica
    /// (the pointer flips here); falls back to naming the next available
    /// worker after the old primary for a cold install. `None` when every
    /// worker is out of rotation.
    pub(super) fn failover(&mut self, shard: usize) -> Option<Failover> {
        let from = self.primary[shard];
        let warm = self.replicas[shard]
            .iter()
            .copied()
            .find(|&x| x != from && self.available(x));
        if let Some(r) = warm {
            self.primary[shard] = r;
            return Some(Failover::Warm);
        }
        let n = self.states.len();
        (0..n)
            .map(|i| (from + 1 + i) % n)
            .find(|&x| self.available(x))
            .map(Failover::Cold)
    }

    /// The cold install [`failover`](Self::failover) asked for landed on
    /// `w`: it answers `shard` from now on.
    pub(super) fn promoted(&mut self, shard: usize, w: usize) {
        self.primary[shard] = w;
    }

    /// Starts a tick; returns the workers to probe.
    pub(super) fn begin_tick(&mut self) -> Vec<usize> {
        self.ticks += 1;
        self.unavailable_workers()
    }

    /// An out-of-rotation worker answered its probe. Returns `true` once
    /// the streak satisfies the hysteresis: ask it what it still hosts.
    pub(super) fn probe_ok(&mut self, w: usize) -> bool {
        if self.available(w) {
            return false;
        }
        self.states[w] = WorkerState::Probing;
        self.probe_streak[w] = (self.probe_streak[w] + 1).min(READMIT_THRESHOLD);
        self.probe_streak[w] == READMIT_THRESHOLD
    }

    /// An out-of-rotation worker failed its probe — or its status call
    /// right after a healthy one: still flapping, the streak starts over.
    pub(super) fn probe_failed(&mut self, w: usize) {
        if !self.available(w) {
            self.states[w] = WorkerState::Excluded;
            self.probe_streak[w] = 0;
        }
    }

    /// A worker whose streak satisfied the hysteresis reported the shards
    /// it still hosts: it re-enters rotation, and those copies re-enter
    /// the replica map for free (a worker that only lost its network
    /// keeps every shard warm; a restarted process reports none and is
    /// re-provisioned by the rebalancer). Returns whether it was
    /// re-admitted.
    pub(super) fn status_reported(&mut self, w: usize, hosted: &[u32]) -> bool {
        if self.available(w) || self.probe_streak[w] < READMIT_THRESHOLD {
            return false;
        }
        self.states[w] = WorkerState::Live;
        self.probe_streak[w] = 0;
        for &s in hosted {
            if (s as usize) < self.replicas.len() {
                self.installed(s as usize, w);
            }
        }
        true
    }

    /// A new worker joined: live, hosting nothing.
    pub(super) fn admitted(&mut self) {
        self.states.push(WorkerState::Live);
        self.probe_streak.push(0);
    }

    /// The `(shard, worker)` installs that move the placement toward the
    /// canonical layout, at most [`MembershipConfig::max_moves_per_tick`]
    /// of them.
    pub(super) fn planned_moves(&self) -> Vec<(usize, usize)> {
        (0..self.primary.len())
            .flat_map(|s| self.targets(s).into_iter().map(move |t| (s, t)))
            .filter(|&(s, t)| !self.replicas[s].contains(&t))
            .take(self.config.max_moves_per_tick)
            .collect()
    }

    /// Points every shard at its canonical primary where that worker is
    /// warm, and any shard whose primary cannot answer at some available
    /// warm holder, so queries stay on the fast path. Pointer flips are
    /// free and unbudgeted; returns how many there were.
    pub(super) fn restore_primaries(&mut self) -> usize {
        let mut flips = 0;
        for s in 0..self.primary.len() {
            let Some(&want) = self.targets(s).first() else {
                continue;
            };
            let current = self.primary[s];
            let current_ok = self.available(current) && self.replicas[s].contains(&current);
            let next = if self.replicas[s].contains(&want) {
                Some(want)
            } else if current_ok {
                None
            } else {
                let mut holders = self.replicas[s].iter().copied();
                holders.find(|&x| self.available(x))
            };
            if let Some(next) = next.filter(|&next| next != current) {
                self.primary[s] = next;
                flips += 1;
            }
        }
        flips
    }

    /// Checks the replica-placement invariant the layer converges to:
    /// every shard tracked on at least
    /// `min(replication_factor, available_workers)` available workers,
    /// with an available primary that holds a warm copy.
    pub(super) fn check_replication(&self) -> Result<(), String> {
        let avail = self.workers_where(true);
        if avail.is_empty() {
            return Err("no available workers".to_owned());
        }
        let want = self.config.replication_factor.min(avail.len());
        for s in 0..self.primary.len() {
            let holders = self.replicas[s]
                .iter()
                .filter(|&&w| self.available(w))
                .count();
            if holders < want {
                return Err(format!(
                    "shard {s} warm on {holders} available workers, want >= {want}"
                ));
            }
            let p = self.primary[s];
            if !self.available(p) {
                return Err(format!("shard {s} primary {p} is not available"));
            }
            if !self.replicas[s].contains(&p) {
                return Err(format!("shard {s} primary {p} holds no warm copy"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    //! The machine, enumerated: every event the engine can report, in
    //! every order, over a cluster small enough to visit every reachable
    //! state (3 workers × 2 shards × replication factor 2), with no
    //! socket anywhere. `serve::tests` checks the admission machine with
    //! the same breadth-first [`checker`].

    use super::*;
    use crate::checker::{self, Violation};

    const WORKERS: usize = 3;
    const SHARDS: usize = 2;
    /// Healthy ticks within which any state must settle: two for the
    /// probe hysteresis, two for the four installs a two-move budget may
    /// have to spread out, one for the pointer flips, one to observe.
    const SETTLE_TICKS: usize = 6;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Event {
        CallOk(usize),
        TransportFailure(usize),
        Exclude(usize),
        ProbeOk(usize),
        ProbeFailed(usize),
        /// Worker, then the hosted shards as a bit mask.
        StatusReported(usize, u32),
        Installed(usize, usize),
        StaleReplicaDropped(usize, usize),
        FailOver(usize),
        Promoted(usize, usize),
        RestorePrimaries,
    }
    use Event::*;

    fn all_events() -> Vec<Event> {
        let mut events = vec![RestorePrimaries];
        for w in 0..WORKERS {
            events.extend([CallOk(w), TransportFailure(w), Exclude(w)]);
            events.extend([ProbeOk(w), ProbeFailed(w)]);
            events.extend((0..1 << SHARDS).map(|mask| StatusReported(w, mask)));
        }
        for s in 0..SHARDS {
            events.push(FailOver(s));
            for w in 0..WORKERS {
                events.extend([Installed(s, w), StaleReplicaDropped(s, w), Promoted(s, w)]);
            }
        }
        events
    }

    /// The transition function under test: each event is one method.
    fn apply(m: &mut Membership, event: Event) {
        match event {
            CallOk(w) => m.call_ok(w),
            TransportFailure(w) => drop(m.transport_failure(w)),
            Exclude(w) => m.exclude(w),
            ProbeOk(w) => drop(m.probe_ok(w)),
            ProbeFailed(w) => m.probe_failed(w),
            StatusReported(w, mask) => {
                let hosted: Vec<u32> = (0..SHARDS as u32).filter(|s| mask >> s & 1 == 1).collect();
                m.status_reported(w, &hosted);
            }
            Installed(s, w) => m.installed(s, w),
            StaleReplicaDropped(s, w) => m.stale_replica_dropped(s, w),
            FailOver(s) => drop(m.failover(s)),
            Promoted(s, w) => m.promoted(s, w),
            RestorePrimaries => drop(m.restore_primaries()),
        }
    }

    fn start() -> Membership {
        let config = MembershipConfig {
            replication_factor: 2,
            max_moves_per_tick: 2,
        };
        Membership::new(config, WORKERS, SHARDS)
    }

    /// Everything but the tick counter, which only ever grows.
    fn key(m: &Membership) -> (Vec<u8>, Vec<u32>, Vec<usize>, Vec<Vec<usize>>) {
        let states = m.states.iter().map(|&s| s as u8).collect();
        (
            states,
            m.probe_streak.clone(),
            m.primary.clone(),
            m.replicas.clone(),
        )
    }

    /// One tick against workers that all answer: every probe succeeds, a
    /// re-admitted worker reports nothing hosted (the restarted-process
    /// case, the most work), every planned install lands. Returns whether
    /// the tick was quiescent.
    fn healthy_tick(m: &mut Membership, step: &impl Fn(&mut Membership, Event)) -> bool {
        let probed = m.begin_tick();
        for &w in &probed {
            step(m, ProbeOk(w));
            step(m, StatusReported(w, 0));
        }
        let moves = m.planned_moves();
        for &(s, w) in &moves {
            step(m, Installed(s, w));
        }
        let before = m.primary.clone();
        step(m, RestorePrimaries);
        probed.is_empty() && moves.is_empty() && before == m.primary
    }

    /// What must hold in every reachable state.
    fn check(m: &Membership, step: &impl Fn(&mut Membership, Event)) -> Result<(), String> {
        for (s, holders) in m.replicas.iter().enumerate() {
            if !holders.windows(2).all(|pair| pair[0] < pair[1]) {
                return Err(format!(
                    "replicas[{s}] = {holders:?} is not sorted and unique"
                ));
            }
            if let Some(w) = holders.iter().find(|&&w| !m.available(w)) {
                return Err(format!("replicas[{s}] = {holders:?} holds unavailable {w}"));
            }
            let mut probe = m.clone();
            let named = match probe.failover(s) {
                Some(Failover::Warm) => Some(probe.primary[s]),
                Some(Failover::Cold(w)) => Some(w),
                None => None,
            };
            if let Some(w) = named.filter(|&w| !m.available(w)) {
                return Err(format!("failover({s}) names unavailable worker {w}"));
            }
        }
        for w in 0..WORKERS {
            if m.available(w) && m.probe_streak[w] != 0 {
                return Err(format!("available worker {w} carries a probe streak"));
            }
        }
        let mut settling = m.clone();
        let settled = (0..SETTLE_TICKS).any(|_| healthy_tick(&mut settling, step));
        if !settled {
            return Err(format!("not quiescent after {SETTLE_TICKS} healthy ticks"));
        }
        settling
            .check_replication()
            .map_err(|e| format!("settled, but {e}"))
    }

    /// Only a reported status can re-admit a worker, and only once its
    /// probe streak reached the threshold.
    fn readmissions_earned(
        before: &Membership,
        event: Event,
        after: &Membership,
    ) -> Result<(), String> {
        let hasty = (0..WORKERS).find(|&w| {
            let readmitted = !before.available(w) && after.available(w);
            let earned =
                matches!(event, StatusReported(..)) && before.probe_streak[w] == READMIT_THRESHOLD;
            readmitted && !earned
        });
        match hasty {
            Some(w) => Err(format!("worker {w} re-admitted without its streak")),
            None => Ok(()),
        }
    }

    /// Every state `step` reaches from [`start`], checked by
    /// [`checker::explore`].
    fn explore(step: impl Fn(&mut Membership, Event)) -> Result<(usize, usize), Violation<Event>> {
        checker::explore(
            start(),
            &all_events(),
            key,
            &step,
            readmissions_earned,
            |m| check(m, &step),
        )
    }

    #[test]
    fn every_reachable_state_keeps_the_invariants_and_settles() {
        let (states, depth) = explore(apply).unwrap_or_else(|v| panic!("{v:?}"));
        // Breadth-first to a fixed point covers every event sequence of
        // every length; the deepest state is at least six events away.
        assert!(depth >= 6, "{states} states, deepest at {depth}");
    }

    /// The checker is handed a machine with one deliberate bug — an
    /// exclusion that forgets to purge the worker's warm-copy entries —
    /// and must report it, with the events that lead there.
    #[test]
    fn an_exclusion_that_skips_the_purge_is_caught_with_its_trace() {
        let no_purge = |m: &mut Membership, event: Event| match event {
            Exclude(w) => {
                m.states[w] = WorkerState::Excluded;
                m.probe_streak[w] = 0;
            }
            other => apply(m, other),
        };
        let violation = explore(no_purge).expect_err("the injected bug went unnoticed");
        assert!(
            violation.message.contains("holds unavailable"),
            "{violation:?}"
        );
        assert!(
            matches!(violation.trace.last(), Some(Exclude(_))),
            "{violation:?}"
        );
        // The trace is the way there: replayed through the buggy machine
        // it reproduces the violation, through the real one it does not.
        let replay = |step: &dyn Fn(&mut Membership, Event)| {
            let mut m = start();
            violation
                .trace
                .iter()
                .for_each(|&event| step(&mut m, event));
            check(&m, &apply)
        };
        assert_eq!(replay(&no_purge), Err(violation.message.clone()));
        assert_eq!(replay(&apply), Ok(()));
    }
}
