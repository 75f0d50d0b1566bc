//! Trace-analysis statistics.
//!
//! Used to verify that synthesized families actually exhibit the behaviour
//! their paper counterparts imply (mix, dependency distances, footprints),
//! and quoted in EXPERIMENTS.md alongside the simulation results.

use std::collections::{HashMap, HashSet};

use crate::uop::{Reg, Trace, UopKind};

/// Histogram cap for dependency distances (distances beyond are lumped).
pub const DEP_HISTOGRAM_MAX: usize = 16;

/// Summary statistics of one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStats {
    /// Total dynamic uops.
    pub total: usize,
    /// Dynamic count per uop kind.
    pub kind_counts: HashMap<UopKind, usize>,
    /// Taken branches among conditional branches.
    pub taken_branches: usize,
    /// Histogram of producer→consumer distances (index 0 = distance 1);
    /// the last bucket collects everything ≥ [`DEP_HISTOGRAM_MAX`].
    pub dep_histogram: Vec<usize>,
    /// Unique 64-byte code lines touched.
    pub code_lines: usize,
    /// Unique 64-byte data lines touched.
    pub data_lines: usize,
    /// Loads whose address was stored at most 4 uops earlier
    /// (the Store Table's full-match events).
    pub immediate_store_load_pairs: usize,
}

impl TraceStats {
    /// Analyzes a trace.
    #[must_use]
    pub fn analyze(trace: &Trace) -> Self {
        let mut kind_counts: HashMap<UopKind, usize> = HashMap::new();
        let mut taken_branches = 0usize;
        let mut dep_histogram = vec![0usize; DEP_HISTOGRAM_MAX];
        let mut code_lines = HashSet::new();
        let mut data_lines = HashSet::new();
        let mut last_writer: HashMap<Reg, usize> = HashMap::new();
        let mut recent_stores: Vec<(usize, u64)> = Vec::new();
        let mut immediate_store_load_pairs = 0usize;

        for (i, u) in trace.uops.iter().enumerate() {
            *kind_counts.entry(u.kind).or_insert(0) += 1;
            if u.kind == UopKind::Branch && u.taken {
                taken_branches += 1;
            }
            code_lines.insert(u.pc >> 6);
            if let Some(line) = u.line_addr() {
                data_lines.insert(line);
            }
            for s in u.sources() {
                if let Some(&w) = last_writer.get(&s) {
                    let d = (i - w).min(DEP_HISTOGRAM_MAX);
                    dep_histogram[d - 1] += 1;
                }
            }
            if u.kind == UopKind::Load {
                if let Some(addr) = u.addr {
                    if recent_stores
                        .iter()
                        .any(|&(si, sa)| sa == addr && i - si <= 4)
                    {
                        immediate_store_load_pairs += 1;
                    }
                }
            }
            if u.kind == UopKind::Store {
                if let Some(addr) = u.addr {
                    recent_stores.push((i, addr));
                    if recent_stores.len() > 8 {
                        recent_stores.remove(0);
                    }
                }
            }
            if let Some(d) = u.dst {
                last_writer.insert(d, i);
            }
        }

        Self {
            total: trace.len(),
            kind_counts,
            taken_branches,
            dep_histogram,
            code_lines: code_lines.len(),
            data_lines: data_lines.len(),
            immediate_store_load_pairs,
        }
    }

    /// Fraction of uops of the given kind.
    #[must_use]
    pub fn fraction(&self, kind: UopKind) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        *self.kind_counts.get(&kind).unwrap_or(&0) as f64 / self.total as f64
    }

    /// Fraction of uops that redirect control flow.
    #[must_use]
    pub fn control_fraction(&self) -> f64 {
        self.fraction(UopKind::Branch) + self.fraction(UopKind::Call) + self.fraction(UopKind::Ret)
    }

    /// Fraction of source operands whose producer is at distance ≤ `d`.
    #[must_use]
    pub fn short_dep_fraction(&self, d: usize) -> f64 {
        let total: usize = self.dep_histogram.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let short: usize = self.dep_histogram.iter().take(d).sum();
        short as f64 / total as f64
    }

    /// Mean producer→consumer distance (capped at the histogram limit).
    #[must_use]
    pub fn mean_dep_distance(&self) -> f64 {
        let total: usize = self.dep_histogram.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let weighted: usize = self
            .dep_histogram
            .iter()
            .enumerate()
            .map(|(i, &c)| (i + 1) * c)
            .sum();
        weighted as f64 / total as f64
    }

    /// Approximate static code footprint in bytes (64 B per line).
    #[must_use]
    pub fn code_footprint_bytes(&self) -> u64 {
        self.code_lines as u64 * 64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::families::{TraceSpec, WorkloadFamily};

    fn stats_for(family: WorkloadFamily, len: usize) -> TraceStats {
        let t = TraceSpec::new(family, 0, len).build().unwrap();
        TraceStats::analyze(&t)
    }

    #[test]
    fn mixes_roughly_match_presets() {
        let s = stats_for(WorkloadFamily::SpecInt, 60_000);
        // Loads ≈ 27% of body instructions; bodies are ≈85% of the stream.
        let loads = s.fraction(UopKind::Load);
        assert!((0.15..0.32).contains(&loads), "load fraction {loads:.3}");
        let stores = s.fraction(UopKind::Store);
        assert!((0.06..0.18).contains(&stores), "store fraction {stores:.3}");
        // No FP in integer code.
        assert_eq!(s.fraction(UopKind::FpAdd), 0.0);
    }

    #[test]
    fn control_fraction_reasonable() {
        for family in WorkloadFamily::all() {
            let s = stats_for(family, 40_000);
            let cf = s.control_fraction();
            assert!(
                (0.04..0.30).contains(&cf),
                "{family}: control fraction {cf:.3}"
            );
        }
    }

    #[test]
    fn dependency_distances_short_and_family_ordered() {
        // Kernel (dep_p=.55) has shorter dependencies than SpecFp (.30).
        let kernel = stats_for(WorkloadFamily::Kernel, 40_000);
        let fp = stats_for(WorkloadFamily::SpecFp, 40_000);
        assert!(kernel.mean_dep_distance() < fp.mean_dep_distance());
        assert!(kernel.short_dep_fraction(2) > 0.3);
    }

    #[test]
    fn code_footprints_ordered_as_designed() {
        let kernel = stats_for(WorkloadFamily::Kernel, 100_000);
        let office = stats_for(WorkloadFamily::Office, 100_000);
        assert!(
            kernel.code_footprint_bytes() < 8 * 1024,
            "kernel footprint {}",
            kernel.code_footprint_bytes()
        );
        assert!(
            office.code_footprint_bytes() > 24 * 1024,
            "office footprint {}",
            office.code_footprint_bytes()
        );
        assert!(kernel.code_footprint_bytes() < office.code_footprint_bytes());
    }

    #[test]
    fn streaming_families_touch_more_data_lines() {
        let kernel = stats_for(WorkloadFamily::Kernel, 60_000);
        let media = stats_for(WorkloadFamily::Multimedia, 60_000);
        assert!(kernel.data_lines > 100);
        assert!(media.data_lines > 50);
    }

    #[test]
    fn stack_reuse_creates_store_load_pairs() {
        // These events feed the Store Table's full-match path.
        let s = stats_for(WorkloadFamily::Office, 60_000);
        assert!(
            s.immediate_store_load_pairs > 10,
            "immediate store→load pairs {}",
            s.immediate_store_load_pairs
        );
    }

    #[test]
    fn empty_trace_yields_zeroes() {
        let s = TraceStats::analyze(&Trace::new("empty", vec![]));
        assert_eq!(s.total, 0);
        assert_eq!(s.fraction(UopKind::IntAlu), 0.0);
        assert_eq!(s.short_dep_fraction(4), 0.0);
        assert_eq!(s.mean_dep_distance(), 0.0);
    }
}
