//! Operator surface of the result store: summaries, a full checksum
//! scrub, byte-budget garbage collection and quarantine management.
//!
//! Everything here backs the `lowvcc-store` admin binary. Unlike the
//! lookup/publish hot path (which is infallible by design — see
//! `store.rs`), admin operations return [`StoreError`]: an operator
//! running a scrub wants to *hear* that the root is unlistable, not have
//! it papered over.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::time::SystemTime;

use lowvcc_core::decode_sim_result;

use crate::store::{ResultStore, StoreError, QUARANTINE_DIR};

/// A point-in-time picture of what is on disk under a store root.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreSummary {
    /// Live `.sim` records across all shards.
    pub entries: u64,
    /// Bytes held by live records.
    pub entry_bytes: u64,
    /// Records currently sitting in `quarantine/`.
    pub quarantined_entries: u64,
    /// Bytes held by quarantined records.
    pub quarantined_bytes: u64,
    /// Stale `*.tmp.*` publish leftovers swept when this handle opened.
    pub orphans_swept: u64,
    /// Whether this handle has latched memory-only (degraded) mode.
    pub degraded: bool,
}

/// Outcome of a full checksum scrub ([`ResultStore::verify`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScrubReport {
    /// Records examined.
    pub scanned: u64,
    /// Records that read and decoded cleanly.
    pub ok: u64,
    /// Records that failed and were moved to `quarantine/`.
    pub quarantined: u64,
    /// Bytes held by the clean records.
    pub ok_bytes: u64,
}

/// Outcome of a byte-budget collection ([`ResultStore::vacuum`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VacuumReport {
    /// Records kept.
    pub kept: u64,
    /// Records removed (least recently used first).
    pub removed: u64,
    /// Bytes remaining after the collection.
    pub kept_bytes: u64,
    /// Bytes reclaimed.
    pub removed_bytes: u64,
}

/// One record in `quarantine/`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineEntry {
    /// Full path of the quarantined file.
    pub path: PathBuf,
    /// Its size in bytes.
    pub bytes: u64,
}

/// A live on-disk record: path, size, and the recency used for LRU
/// collection.
struct DiskRecord {
    path: PathBuf,
    bytes: u64,
    touched: SystemTime,
}

fn io_err(path: &Path, source: std::io::Error) -> StoreError {
    StoreError::Io {
        path: path.to_path_buf(),
        source,
    }
}

/// Lists every live `.sim` record under `dir` (quarantine excluded).
fn disk_records(dir: &Path) -> Result<Vec<DiskRecord>, StoreError> {
    let mut records = Vec::new();
    for shard in fs::read_dir(dir).map_err(|e| io_err(dir, e))? {
        let shard = shard.map_err(|e| io_err(dir, e))?.path();
        if !shard.is_dir() || shard.file_name().is_some_and(|f| f == QUARANTINE_DIR) {
            continue;
        }
        for entry in fs::read_dir(&shard).map_err(|e| io_err(&shard, e))? {
            let entry = entry.map_err(|e| io_err(&shard, e))?;
            let path = entry.path();
            if !path.extension().is_some_and(|e| e == "sim") {
                continue;
            }
            let meta = entry.metadata().map_err(|e| io_err(&path, e))?;
            // Access time where the filesystem tracks it (noatime and
            // relatime mounts are common), else modification time —
            // either way "least recently useful" for the vacuum order.
            #[expect(clippy::disallowed_methods, reason = "vacuum order, never a result")]
            let touched = meta
                .accessed()
                .or_else(|_| meta.modified())
                .unwrap_or(SystemTime::UNIX_EPOCH);
            records.push(DiskRecord {
                path,
                bytes: meta.len(),
                touched,
            });
        }
    }
    Ok(records)
}

impl ResultStore {
    /// Sizes up the store root: live entries, quarantine, sweep count,
    /// degradation flag. Ephemeral stores summarize as all-zero.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if a directory cannot be listed.
    pub fn summary(&self) -> Result<StoreSummary, StoreError> {
        let Some(dir) = self.dir() else {
            return Ok(StoreSummary::default());
        };
        let live = disk_records(dir)?;
        let quarantine = self.quarantine_list()?;
        Ok(StoreSummary {
            entries: live.len() as u64,
            entry_bytes: live.iter().map(|r| r.bytes).sum(),
            quarantined_entries: quarantine.len() as u64,
            quarantined_bytes: quarantine.iter().map(|q| q.bytes).sum(),
            orphans_swept: self.orphans_swept.load(Ordering::Relaxed),
            degraded: self.degraded(),
        })
    }

    /// Full checksum scrub: reads and decodes every live record through
    /// the I/O seam, quarantining each failure. A second `verify` right
    /// after therefore reports zero new quarantines — scrub-clean.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if a directory cannot be listed (individual
    /// record failures are quarantined, not errors).
    pub fn verify(&self) -> Result<ScrubReport, StoreError> {
        let Some(dir) = self.dir() else {
            return Ok(ScrubReport::default());
        };
        let mut report = ScrubReport::default();
        for record in disk_records(dir)? {
            report.scanned += 1;
            let healthy = match self.io.read(&record.path) {
                Ok(bytes) => decode_sim_result(&bytes)
                    .map(|_| ())
                    .map_err(|e| e.to_string()),
                Err(e) => Err(e.to_string()),
            };
            match healthy {
                Ok(()) => {
                    report.ok += 1;
                    report.ok_bytes += record.bytes;
                }
                Err(why) => {
                    self.quarantine(&record.path, &format!("scrub failed: {why}"));
                    report.quarantined += 1;
                }
            }
        }
        Ok(report)
    }

    /// Collects the store down to `max_bytes` of live records, removing
    /// the least recently used (by access time, falling back to mtime)
    /// first. Quarantined records are not counted against the budget —
    /// purge them separately.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if a directory cannot be listed or a victim
    /// cannot be removed.
    pub fn vacuum(&self, max_bytes: u64) -> Result<VacuumReport, StoreError> {
        let Some(dir) = self.dir() else {
            return Ok(VacuumReport::default());
        };
        let mut records = disk_records(dir)?;
        // Oldest first; path as a tiebreak so equal timestamps (coarse
        // filesystem clocks) still collect in a stable order.
        records.sort_by(|a, b| (a.touched, &a.path).cmp(&(b.touched, &b.path)));
        let total: u64 = records.iter().map(|r| r.bytes).sum();
        let mut report = VacuumReport {
            kept: records.len() as u64,
            kept_bytes: total,
            ..VacuumReport::default()
        };
        let mut over = total.saturating_sub(max_bytes);
        for victim in &records {
            if over == 0 {
                break;
            }
            self.io
                .remove_file(&victim.path)
                .map_err(|e| io_err(&victim.path, e))?;
            over = over.saturating_sub(victim.bytes);
            report.removed += 1;
            report.removed_bytes += victim.bytes;
            report.kept -= 1;
            report.kept_bytes -= victim.bytes;
        }
        Ok(report)
    }

    /// Lists the records currently in `quarantine/`, sorted by path.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the quarantine directory exists but cannot
    /// be listed.
    pub fn quarantine_list(&self) -> Result<Vec<QuarantineEntry>, StoreError> {
        let Some(dir) = self.dir() else {
            return Ok(Vec::new());
        };
        let qdir = dir.join(QUARANTINE_DIR);
        let listing = match fs::read_dir(&qdir) {
            Ok(l) => l,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(io_err(&qdir, e)),
        };
        let mut entries = Vec::new();
        for entry in listing {
            let entry = entry.map_err(|e| io_err(&qdir, e))?;
            let path = entry.path();
            if path.is_file() {
                let bytes = entry.metadata().map_err(|e| io_err(&path, e))?.len();
                entries.push(QuarantineEntry { path, bytes });
            }
        }
        entries.sort_by(|a, b| a.path.cmp(&b.path));
        Ok(entries)
    }

    /// Deletes everything in `quarantine/`, returning how many records
    /// were purged.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if a quarantined record cannot be removed.
    pub fn quarantine_purge(&self) -> Result<u64, StoreError> {
        let entries = self.quarantine_list()?;
        for entry in &entries {
            self.io
                .remove_file(&entry.path)
                .map_err(|e| io_err(&entry.path, e))?;
        }
        Ok(entries.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::Flight;
    use lowvcc_core::{sim_key, CoreConfig, Mechanism, SimConfig, SimKey, SimResult, Simulator};
    use lowvcc_sram::voltage::mv;
    use lowvcc_sram::CycleTimeModel;
    use lowvcc_trace::{TraceSpec, WorkloadFamily};

    fn run_at(vcc: u32) -> (SimKey, SimResult) {
        let timing = CycleTimeModel::silverthorne_45nm();
        let cfg = SimConfig::at_vcc(
            CoreConfig::silverthorne(),
            &timing,
            mv(vcc),
            Mechanism::Iraw,
        );
        let spec = TraceSpec::new(WorkloadFamily::Kernel, 0, 3_000);
        let result = Simulator::new(cfg.clone())
            .unwrap()
            .run(&spec.build().unwrap())
            .unwrap();
        (sim_key(&cfg, &spec), result)
    }

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("lowvcc_admin_{name}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn verify_quarantines_exactly_the_corrupt_records() {
        let dir = tmpdir("verify");
        let store = ResultStore::open(&dir).unwrap();
        let keys: Vec<SimKey> = [450u32, 500, 550]
            .iter()
            .map(|&v| {
                let (key, result) = run_at(v);
                store.put(key, &result);
                key
            })
            .collect();
        // Corrupt one of the three on disk.
        let hex = keys[1].to_hex();
        let victim = dir.join(&hex[..2]).join(format!("{hex}.sim"));
        let mut bytes = fs::read(&victim).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x80;
        fs::write(&victim, &bytes).unwrap();

        let report = store.verify().unwrap();
        assert_eq!(report.scanned, 3);
        assert_eq!(report.ok, 2);
        assert_eq!(report.quarantined, 1);
        // Scrub-clean: a second pass finds nothing left to quarantine.
        let again = store.verify().unwrap();
        assert_eq!(again.scanned, 2);
        assert_eq!(again.quarantined, 0);
        let summary = store.summary().unwrap();
        assert_eq!(summary.entries, 2);
        assert_eq!(summary.quarantined_entries, 1);
        assert_eq!(store.quarantine_list().unwrap().len(), 1);
        assert_eq!(store.quarantine_purge().unwrap(), 1);
        assert_eq!(store.quarantine_list().unwrap().len(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn vacuum_collects_down_to_the_byte_budget() {
        let dir = tmpdir("vacuum");
        let store = ResultStore::open(&dir).unwrap();
        let mut per_entry = 0;
        for v in [450u32, 475, 500, 525, 550] {
            let (key, result) = run_at(v);
            store.put(key, &result);
            per_entry = lowvcc_core::encode_sim_result(&result).len() as u64;
        }
        let before = store.summary().unwrap();
        assert_eq!(before.entries, 5);
        // Budget for two records: three oldest go.
        let report = store.vacuum(2 * per_entry).unwrap();
        assert_eq!(report.removed, 3);
        assert_eq!(report.kept, 2);
        assert!(report.kept_bytes <= 2 * per_entry);
        assert_eq!(store.summary().unwrap().entries, 2);
        // A roomy budget removes nothing.
        let noop = store.vacuum(u64::MAX).unwrap();
        assert_eq!(noop.removed, 0);
        // The survivors still verify clean.
        let scrub = store.verify().unwrap();
        assert_eq!((scrub.scanned, scrub.quarantined), (2, 0));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn vacuumed_keys_resimulate_cleanly() {
        let dir = tmpdir("revive");
        let store = ResultStore::open(&dir).unwrap();
        let (key, result) = run_at(500);
        store.put(key, &result);
        store.vacuum(0).unwrap();
        assert_eq!(store.summary().unwrap().entries, 0);
        // The LRU may still answer; a cold handle must miss and lead.
        let cold = ResultStore::open(&dir).unwrap();
        assert!(matches!(cold.lookup(key), Flight::Lead(_)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn ephemeral_admin_surface_is_all_zero() {
        let store = ResultStore::ephemeral();
        assert_eq!(store.summary().unwrap(), StoreSummary::default());
        assert_eq!(store.verify().unwrap(), ScrubReport::default());
        assert_eq!(store.vacuum(0).unwrap(), VacuumReport::default());
        assert_eq!(store.quarantine_list().unwrap(), Vec::new());
        assert_eq!(store.quarantine_purge().unwrap(), 0);
    }
}
