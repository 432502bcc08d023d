//! Cluster configuration and virtual-cluster makespan simulation.
//!
//! The paper's experiments report MapReduce *job execution time* on a
//! 16-node cluster. Reproducing the shape of those curves needs two
//! things this module provides:
//!
//! * [`ClusterConfig`] — how many real worker threads execute tasks on the
//!   host machine (the measured baseline), and
//! * [`SimulatedCluster`] — a deterministic list scheduler that replays the
//!   measured per-task durations onto `slots` virtual task slots, to
//!   estimate what the makespan would be on a cluster of a different size.
//!   This is a classic `P || Cmax` greedy schedule — tasks are assigned in
//!   submission order to the earliest-free slot, which is exactly what a
//!   FIFO Hadoop scheduler does for a single job's task queue.

use crate::stats::JobStats;
use std::fmt;
use std::time::Duration;

/// Execution configuration for [`crate::LocalPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Number of real worker threads (task slots) on the host.
    pub workers: usize,
}

/// Environment variable overriding [`ClusterConfig::auto`]'s worker count.
///
/// Scope: this sizes **thread** pools inside one process — map/reduce
/// task slots and serve concurrency. It is orthogonal to the remote
/// backend's worker **processes**: there the count comes from the backend
/// spec itself (`remote:N`) and the addresses from the
/// `SPQ_REMOTE_WORKERS` variable (see `spq-core`'s `remote` module).
/// Setting `SPQ_WORKERS` neither changes how `remote:N` parses nor how
/// many worker processes serve it; and because a worker answers shard
/// queries with the single-threaded kernel (a traced request's job runs
/// on the manager), a worker process's *own* `SPQ_WORKERS` never shapes
/// an answer.
pub const WORKERS_ENV: &str = "SPQ_WORKERS";

/// Worker count [`ClusterConfig::auto`] falls back to when the host does
/// not report its parallelism (see [`ClusterConfig::auto`] for when that
/// happens and how to override it).
pub const WORKERS_FALLBACK: usize = 4;

/// Why a [`SPQ_WORKERS`](WORKERS_ENV) value could not be used.
///
/// Returned by [`ClusterConfig::try_auto`]; [`ClusterConfig::auto`] prints
/// the same diagnostic to stderr and falls back, so a typo in a deployment
/// manifest is *visible* instead of silently sizing the pool differently
/// than the operator asked for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkersEnvError {
    /// The value did not parse as an unsigned integer.
    NotANumber {
        /// The raw value found in the environment.
        value: String,
    },
    /// The value parsed but was zero (a pool needs at least one worker).
    Zero,
}

impl fmt::Display for WorkersEnvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkersEnvError::NotANumber { value } => write!(
                f,
                "{WORKERS_ENV}={value:?} is not a positive integer worker count"
            ),
            WorkersEnvError::Zero => {
                write!(f, "{WORKERS_ENV}=0 is invalid: need at least one worker")
            }
        }
    }
}

impl std::error::Error for WorkersEnvError {}

impl ClusterConfig {
    /// A cluster using every available core.
    ///
    /// Resolution order:
    ///
    /// 1. the [`SPQ_WORKERS`](WORKERS_ENV) environment variable, when set
    ///    to a positive integer — a malformed or zero value prints a
    ///    one-line diagnostic to stderr and falls through (use
    ///    [`try_auto`](Self::try_auto) to make that an error instead);
    /// 2. [`std::thread::available_parallelism`];
    /// 3. the fixed fallback of [`WORKERS_FALLBACK`] (= 4) workers.
    ///
    /// The fallback matters in containers and sandboxes where
    /// `available_parallelism` errors out (no `/proc`, restricted
    /// `sched_getaffinity`, …): there `auto()` silently becomes 4 workers,
    /// which also caps anything that derives its concurrency from it —
    /// e.g. an `SpqExecutor`'s default cluster. Set `SPQ_WORKERS` to size
    /// such hosts explicitly.
    pub fn auto() -> Self {
        match Self::try_auto() {
            Ok(config) => config,
            Err(e) => {
                eprintln!("spq-mapreduce: ignoring {e}; using host parallelism");
                Self::host_parallelism()
            }
        }
    }

    /// [`auto`](Self::auto) with strict [`SPQ_WORKERS`](WORKERS_ENV)
    /// handling: a malformed or zero value is returned as a
    /// [`WorkersEnvError`] instead of being logged and skipped — the right
    /// entry point for services that would rather fail fast at startup
    /// than run with a worker count the operator did not intend.
    pub fn try_auto() -> Result<Self, WorkersEnvError> {
        match parse_workers(std::env::var(WORKERS_ENV).ok().as_deref())? {
            Some(workers) => Ok(Self { workers }),
            None => Ok(Self::host_parallelism()),
        }
    }

    /// The host-reported parallelism with the documented fixed fallback,
    /// ignoring the environment override entirely.
    fn host_parallelism() -> Self {
        Self {
            workers: std::thread::available_parallelism().map_or(WORKERS_FALLBACK, |n| n.get()),
        }
    }

    /// A cluster with an explicit number of worker slots.
    ///
    /// # Panics
    ///
    /// Panics when `workers == 0`.
    pub fn with_workers(workers: usize) -> Self {
        assert!(workers > 0, "cluster needs at least one worker");
        Self { workers }
    }

    /// A single-threaded cluster — useful for deterministic debugging.
    pub fn sequential() -> Self {
        Self { workers: 1 }
    }
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self::auto()
    }
}

/// Parses a `SPQ_WORKERS`-style override: `Ok(Some(n))` for a positive
/// integer, `Ok(None)` when the variable is unset, and a typed
/// [`WorkersEnvError`] for malformed or zero values (so callers can choose
/// between logging and failing — silently ignoring an operator-provided
/// value is not an option).
fn parse_workers(value: Option<&str>) -> Result<Option<usize>, WorkersEnvError> {
    let Some(raw) = value else { return Ok(None) };
    match raw.trim().parse::<usize>() {
        Ok(0) => Err(WorkersEnvError::Zero),
        Ok(n) => Ok(Some(n)),
        Err(_) => Err(WorkersEnvError::NotANumber {
            value: raw.to_owned(),
        }),
    }
}

/// A deterministic virtual cluster for makespan estimation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimulatedCluster {
    /// Number of parallel task slots.
    pub slots: usize,
}

impl SimulatedCluster {
    /// Creates a virtual cluster.
    ///
    /// # Panics
    ///
    /// Panics when `slots == 0`.
    pub fn new(slots: usize) -> Self {
        assert!(slots > 0, "simulated cluster needs at least one slot");
        Self { slots }
    }

    /// Greedy list-schedule of `durations` (in submission order) onto the
    /// slots; returns the makespan.
    pub fn makespan(&self, durations: &[Duration]) -> Duration {
        let mut slots = vec![Duration::ZERO; self.slots];
        for &d in durations {
            // Earliest-free slot; ties resolved by lowest index, so the
            // schedule is deterministic.
            let idx =
                (1..slots.len()).fold(0, |best, i| if slots[i] < slots[best] { i } else { best });
            slots[idx] += d;
        }
        slots.into_iter().max().unwrap_or(Duration::ZERO)
    }

    /// Estimated job execution time on this virtual cluster: map-phase
    /// makespan + shuffle + reduce-phase makespan, using the real measured
    /// per-task durations recorded in `stats`.
    ///
    /// The paper sets the number of reducers equal to the number of grid
    /// cells and lets the cluster's ~100 cores process them in waves
    /// (footnote 1 of Section 6.3); the greedy schedule reproduces that
    /// wave behaviour including stragglers on skewed data.
    pub fn job_makespan(&self, stats: &JobStats) -> Duration {
        let map: Vec<Duration> = stats.map_tasks.iter().map(|t| t.duration).collect();
        let red: Vec<Duration> = stats.reduce_tasks.iter().map(|t| t.duration).collect();
        self.makespan(&map) + stats.shuffle_wall + self.makespan(&red)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::TaskStats;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn single_slot_sums_everything() {
        let c = SimulatedCluster::new(1);
        assert_eq!(c.makespan(&[ms(5), ms(10), ms(1)]), ms(16));
    }

    #[test]
    fn enough_slots_take_the_maximum() {
        let c = SimulatedCluster::new(8);
        assert_eq!(c.makespan(&[ms(5), ms(10), ms(1)]), ms(10));
    }

    #[test]
    fn greedy_wave_scheduling() {
        // 4 equal tasks on 2 slots -> two waves.
        let c = SimulatedCluster::new(2);
        assert_eq!(c.makespan(&[ms(10); 4]), ms(20));
        // A straggler dominates: [10,10,10,30] on 2 slots.
        // slot0: 10+10=20, slot1: 10+30=40 (greedy assigns in order).
        assert_eq!(c.makespan(&[ms(10), ms(10), ms(10), ms(30)]), ms(40));
    }

    #[test]
    fn empty_schedule_is_zero() {
        assert_eq!(SimulatedCluster::new(4).makespan(&[]), Duration::ZERO);
    }

    #[test]
    fn job_makespan_combines_phases() {
        let stats = JobStats {
            map_tasks: vec![
                TaskStats {
                    duration: ms(10),
                    ..Default::default()
                },
                TaskStats {
                    duration: ms(10),
                    ..Default::default()
                },
            ],
            reduce_tasks: vec![TaskStats {
                duration: ms(7),
                ..Default::default()
            }],
            shuffle_wall: ms(3),
            ..Default::default()
        };
        // 2 slots: map makespan 10, shuffle 3, reduce 7.
        assert_eq!(SimulatedCluster::new(2).job_makespan(&stats), ms(20));
        // 1 slot: 20 + 3 + 7.
        assert_eq!(SimulatedCluster::new(1).job_makespan(&stats), ms(30));
    }

    #[test]
    fn more_slots_never_hurt() {
        let durations: Vec<Duration> = (1..40u64).map(ms).collect();
        let mut prev = SimulatedCluster::new(1).makespan(&durations);
        for slots in 2..12 {
            let cur = SimulatedCluster::new(slots).makespan(&durations);
            assert!(cur <= prev, "slots {slots}: {cur:?} > {prev:?}");
            prev = cur;
        }
    }

    #[test]
    #[should_panic]
    fn zero_slots_rejected() {
        let _ = SimulatedCluster::new(0);
    }

    #[test]
    #[should_panic]
    fn zero_workers_rejected() {
        let _ = ClusterConfig::with_workers(0);
    }

    #[test]
    fn config_constructors() {
        assert!(ClusterConfig::auto().workers >= 1);
        assert_eq!(ClusterConfig::sequential().workers, 1);
        assert_eq!(ClusterConfig::with_workers(5).workers, 5);
    }

    #[test]
    fn workers_env_parsing() {
        // Unset: defer to host parallelism.
        assert_eq!(parse_workers(None), Ok(None));
        // Valid positive integers, whitespace tolerated.
        assert_eq!(parse_workers(Some("3")), Ok(Some(3)));
        assert_eq!(parse_workers(Some(" 12 ")), Ok(Some(12)));
        // Malformed values carry the offending text in the diagnostic.
        for bad in ["", "-2", "not a number", "3.5", "4x"] {
            assert_eq!(
                parse_workers(Some(bad)),
                Err(WorkersEnvError::NotANumber {
                    value: bad.to_owned()
                }),
                "{bad:?}"
            );
        }
        // Zero is its own diagnostic (it parses, but can't run tasks).
        assert_eq!(parse_workers(Some("0")), Err(WorkersEnvError::Zero));
        assert_eq!(parse_workers(Some(" 0 ")), Err(WorkersEnvError::Zero));
    }

    #[test]
    fn workers_env_errors_render_the_variable_name() {
        let e = WorkersEnvError::NotANumber {
            value: "bogus".to_owned(),
        };
        assert!(e.to_string().contains("SPQ_WORKERS"));
        assert!(e.to_string().contains("bogus"));
        assert!(WorkersEnvError::Zero.to_string().contains("SPQ_WORKERS=0"));
    }

    #[test]
    fn workers_env_overrides_auto() {
        // Other tests only require auto().workers >= 1, which holds for
        // any value this test can set, so the process-global env var is
        // safe to touch here.
        std::env::set_var(WORKERS_ENV, "3");
        assert_eq!(ClusterConfig::auto().workers, 3);
        assert_eq!(
            ClusterConfig::try_auto(),
            Ok(ClusterConfig::with_workers(3))
        );
        // Malformed: auto() logs and falls back; try_auto() surfaces it.
        std::env::set_var(WORKERS_ENV, "bogus");
        assert!(ClusterConfig::auto().workers >= 1); // diagnosed, not a panic
        assert_eq!(
            ClusterConfig::try_auto(),
            Err(WorkersEnvError::NotANumber {
                value: "bogus".to_owned()
            })
        );
        std::env::set_var(WORKERS_ENV, "0");
        assert_eq!(ClusterConfig::try_auto(), Err(WorkersEnvError::Zero));
        std::env::remove_var(WORKERS_ENV);
        assert!(ClusterConfig::try_auto().is_ok());
    }
}
