//! Job- and task-level execution statistics.

use crate::counters::Counters;
use std::fmt;
use std::time::Duration;

/// Execution phase of a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Map phase.
    Map,
    /// Reduce phase.
    Reduce,
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Phase::Map => write!(f, "map"),
            Phase::Reduce => write!(f, "reduce"),
        }
    }
}

/// Statistics of a single map or reduce task attempt.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TaskStats {
    /// Wall-clock duration of the task body.
    pub duration: Duration,
    /// Records read by the task.
    pub records_in: u64,
    /// Records written by the task.
    pub records_out: u64,
}

/// Aggregated statistics of one MapReduce job.
#[derive(Debug, Clone, Default)]
pub struct JobStats {
    /// Per-map-task statistics, in split order.
    pub map_tasks: Vec<TaskStats>,
    /// Per-reduce-task statistics, in reducer order.
    pub reduce_tasks: Vec<TaskStats>,
    /// Wall-clock time of the map phase (tasks run on the real pool).
    pub map_wall: Duration,
    /// Wall-clock time of the hand-off between the map and reduce
    /// phases: merging the map tasks' counters and statistics. No record
    /// moves in it, so it reads ≈ 0. Each reduce task copies its own
    /// input out of the map tasks' spills, and that copy counts in its
    /// duration, as Hadoop's copy phase counts in its reduce task.
    pub shuffle_wall: Duration,
    /// Wall-clock time of the reduce phase.
    pub reduce_wall: Duration,
    /// End-to-end job wall-clock time.
    pub total_wall: Duration,
    /// Records that crossed the shuffle (map output records, including
    /// duplicated feature objects).
    pub shuffle_records: u64,
    /// Merged counters from all tasks plus runtime-maintained ones.
    pub counters: Counters,
}

impl JobStats {
    /// Total records consumed by all map tasks.
    pub fn map_input_records(&self) -> u64 {
        self.map_tasks.iter().map(|t| t.records_in).sum()
    }

    /// Total records produced by all reducers.
    pub fn reduce_output_records(&self) -> u64 {
        self.reduce_tasks.iter().map(|t| t.records_out).sum()
    }

    /// The busiest reducer's input size — the load-balance indicator the
    /// paper discusses for the clustered dataset (Section 7.2.4).
    pub fn max_reduce_input(&self) -> u64 {
        self.reduce_tasks
            .iter()
            .map(|t| t.records_in)
            .max()
            .unwrap_or(0)
    }

    /// Ratio of the busiest reducer's input to the mean reducer input — 1.0
    /// is perfectly balanced; large values explain straggler-dominated
    /// makespans on skewed data.
    pub fn reduce_skew(&self) -> f64 {
        let n = self.reduce_tasks.len();
        if n == 0 {
            return 1.0;
        }
        let total: u64 = self.reduce_tasks.iter().map(|t| t.records_in).sum();
        if total == 0 {
            return 1.0;
        }
        let mean = total as f64 / n as f64;
        self.max_reduce_input() as f64 / mean
    }
}

impl fmt::Display for JobStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "job: total {:?} (map {:?}, shuffle {:?}, reduce {:?})",
            self.total_wall, self.map_wall, self.shuffle_wall, self.reduce_wall
        )?;
        writeln!(
            f,
            "  {} map tasks ({} records in, {} shuffled), {} reduce tasks ({} records out, skew {:.2})",
            self.map_tasks.len(),
            self.map_input_records(),
            self.shuffle_records,
            self.reduce_tasks.len(),
            self.reduce_output_records(),
            self.reduce_skew(),
        )?;
        write!(f, "{}", self.counters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(records_in: u64) -> TaskStats {
        TaskStats {
            duration: Duration::from_millis(records_in),
            records_in,
            records_out: records_in / 2,
        }
    }

    #[test]
    fn aggregates_over_tasks() {
        let stats = JobStats {
            map_tasks: vec![task(10), task(30)],
            reduce_tasks: vec![task(8), task(24), task(16)],
            ..Default::default()
        };
        assert_eq!(stats.map_input_records(), 40);
        assert_eq!(stats.reduce_output_records(), 4 + 12 + 8);
        assert_eq!(stats.max_reduce_input(), 24);
        let mean = 48.0 / 3.0;
        assert!((stats.reduce_skew() - 24.0 / mean).abs() < 1e-12);
    }

    #[test]
    fn skew_defaults_to_balanced() {
        let empty = JobStats::default();
        assert_eq!(empty.reduce_skew(), 1.0);
        assert_eq!(empty.max_reduce_input(), 0);
        let zeros = JobStats {
            reduce_tasks: vec![task(0), task(0)],
            ..Default::default()
        };
        assert_eq!(zeros.reduce_skew(), 1.0);
    }

    #[test]
    fn display_mentions_phases() {
        let s = JobStats::default().to_string();
        assert!(s.contains("map"));
        assert!(s.contains("reduce"));
    }
}
