//! Durable checkpoint/resume for long sweeps.
//!
//! When a store is active (CLI `--checkpoint DIR`), every completed
//! `(app, config, seed)` run is appended to an on-disk log as one
//! crc-framed JSONL record carrying the full [`RunReport`] plus the memo
//! key and content fingerprint the sweep cache uses. A later process
//! started with `--resume` replays the log into the memo cache via
//! [`resume_from`]: verified records are served without re-simulation,
//! while corrupted or torn records — a crash mid-append leaves at most
//! one partial line at the end of a segment — are skipped and their
//! runs simply re-execute. Because a run is a pure function of its memo
//! key, a resumed sweep produces byte-identical tables and manifests.
//!
//! On-disk layout: the checkpoint directory holds `seg-NNNNN.jsonl`
//! segments, read in name order. Each process that writes claims a
//! segment of its own through a `Writer`, so a resumed sweep appends
//! after a torn line, never onto it, and the store needs no rewrite.
//! Every [`SEGMENT_RECORDS`] records a writer syncs its segment and the
//! directory. A campaign directory holds its workers' segments in the
//! same layout, written by the same `Writer`.
//!
//! Record framing: `<8-hex crc32> <json>`, where the JSON body is
//! `{"v":1,"key":"<16-hex>","fp":"<16-hex>","retries":N,"report":{…}}`.
//! The crc covers the JSON body, so a torn or bit-flipped line is
//! detected without trusting the JSON parser's error paths. The body is
//! written by the streaming snapshot codec
//! ([`write_report`](scalesim_core::write_report)) straight into the
//! line, and read back by one strict cursor pass
//! ([`read_report`](scalesim_core::read_report)) that accepts only the
//! canonical text the writer emits. The report's own `v`
//! ([`SNAPSHOT_VERSION`](scalesim_core::SNAPSHOT_VERSION), 2 since
//! timelines are stored as their packed bytes in base64) is the store's
//! version header: an intact record an earlier build wrote in an older
//! snapshot version is skipped, counted in [`ResumeStats::older`], and
//! its point re-runs. The stored
//! fingerprint is always the *true* report fingerprint — the structural
//! hash the sweep memo uses, taken once by the worker that ran the
//! point — and resume recomputes it from the deserialized report and
//! refuses any record where the two disagree. A store written by a build
//! with a different fingerprint therefore verifies nothing and re-runs
//! every point once.
//!
//! Workers frame their records before taking the store lock, which
//! guards only the append.
//!
//! Every read of a store directory — a resume's segments and the
//! campaign merge's worker segments — goes through
//! [`replay_dir`] and its one streaming reader. Up to
//! [`worker_budget`](crate::sweep::worker_budget) decode workers take
//! the next line under the reader's lock, then check it for UTF-8,
//! decode it and re-fingerprint its report outside the lock. Only the
//! lines in flight are resident, never the whole file, and results keep
//! line order, so the last record per key wins exactly as in a serial
//! pass. UTF-8 is checked per line: a bad byte costs the one record it
//! sits in, which counts as skipped like any other corrupt line. The
//! reader rewrites nothing: a rejected line stays where it is and is
//! skipped again by every later replay.
//!
//! Host-time-dependent truncations
//! ([`Watchdog`](scalesim_simkit::AbortReason::Watchdog) /
//! [`MaxHostMs`](scalesim_simkit::AbortReason::MaxHostMs)) are never
//! checkpointed, and [`replay_dir`] refuses them if a store holds one
//! anyway: replaying them would freeze a transient host condition into
//! a deterministic artifact. Quarantined stubs never reach the
//! store either (they are not memoized for the same reason).

use std::collections::HashMap;
use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};

use scalesim_core::{read_report, write_report, JsonCursor, JsonWriter, RunReport, SnapshotError};
use scalesim_trace::sync_dir;

use crate::sweep;

/// Records a writer appends between syncs of its segment.
pub const SEGMENT_RECORDS: usize = 128;

/// What [`resume_from`] found in the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResumeStats {
    /// Verified records replayed into the memo cache.
    pub loaded: usize,
    /// Records dropped: a line that is not UTF-8, a crc mismatch,
    /// unparsable JSON, a fingerprint that no longer matches the
    /// deserialized report, a report that may not be checkpointed, or a
    /// record in an older snapshot version.
    pub skipped: usize,
    /// Of `skipped`, the records an earlier build wrote in an older
    /// snapshot version: intact, but not readable by this build.
    pub older: usize,
    /// Segment files read.
    pub segments: usize,
}

// ---------------------------------------------------------------------
// crc32 (IEEE), hand-rolled so the store stays std-only.
// ---------------------------------------------------------------------

const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// Slice-by-8 tables: `CRC_TABLES[k]` advances a byte's contribution
/// past `k` further bytes, so eight table lookups consume eight bytes.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [CRC_TABLE; 8];
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ CRC_TABLE[(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Feeds `bytes` one at a time into the running (pre-inverted) crc `c`.
fn crc32_bytewise(mut c: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
    }
    c
}

fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xffff_ffffu32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = c ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        c = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][usize::from(chunk[4])]
            ^ t[2][usize::from(chunk[5])]
            ^ t[1][usize::from(chunk[6])]
            ^ t[0][usize::from(chunk[7])];
    }
    crc32_bytewise(c, chunks.remainder()) ^ 0xffff_ffff
}

// ---------------------------------------------------------------------
// Record framing
// ---------------------------------------------------------------------

/// Frames one completed run as a crc-checked store line (no trailing
/// newline). Shared with the campaign runner, whose per-worker segments
/// use the identical framing.
pub(crate) fn encode_record(key: u64, report: &RunReport, fp: u64, retries: u32) -> String {
    // The body is written after a placeholder crc, then the crc of the
    // body is written over the placeholder.
    let mut w = JsonWriter::append_to("00000000 ".to_owned());
    w.begin_obj();
    w.key("v");
    w.u64(1);
    w.key("key");
    w.str(&format!("{key:016x}"));
    w.key("fp");
    w.str(&format!("{fp:016x}"));
    w.key("retries");
    w.u64(u64::from(retries));
    w.key("report");
    write_report(&mut w, report);
    w.end_obj();
    let mut line = w.finish();
    let crc = format!("{:08x}", crc32(&line.as_bytes()[9..]));
    line.replace_range(..8, &crc);
    line
}

pub(crate) struct Record {
    pub(crate) key: u64,
    pub(crate) fp: u64,
    pub(crate) retries: u32,
    pub(crate) report: RunReport,
}

/// Why a store line is not replayed. Either way the caller skips it and
/// the point re-runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Reject {
    /// Torn, bit-flipped, not UTF-8, or not a record any build wrote
    /// (a future format included).
    Corrupt,
    /// An intact record from an earlier build, whose report is in an
    /// older snapshot version than this build reads.
    OlderVersion,
}

/// The record fields before its report: `(key, fp, retries)`.
fn read_record_head(p: &mut JsonCursor<'_>) -> Option<(u64, u64, u32)> {
    p.begin_obj().ok()?;
    p.key("v").ok()?;
    if p.u64().ok()? != 1 {
        return None;
    }
    let mut hex = |name: &str| {
        p.key(name).ok()?;
        u64::from_str_radix(&p.str().ok()?, 16).ok()
    };
    let key = hex("key")?;
    let fp = hex("fp")?;
    p.key("retries").ok()?;
    let retries = u32::try_from(p.u64().ok()?).ok()?;
    p.key("report").ok()?;
    Some((key, fp, retries))
}

/// Decodes one store line, or says why it cannot be replayed.
pub(crate) fn decode_record(line: &str) -> Result<Record, Reject> {
    let (crc_hex, body) = line.split_once(' ').ok_or(Reject::Corrupt)?;
    let stored_crc = u32::from_str_radix(crc_hex, 16).map_err(|_| Reject::Corrupt)?;
    if crc_hex.len() != 8 || crc32(body.as_bytes()) != stored_crc {
        return Err(Reject::Corrupt);
    }
    let mut p = JsonCursor::new(body);
    let (key, fp, retries) = read_record_head(&mut p).ok_or(Reject::Corrupt)?;
    let report = read_report(&mut p).map_err(|e| match e {
        SnapshotError::OlderVersion(_) => Reject::OlderVersion,
        SnapshotError::Malformed(_) => Reject::Corrupt,
    })?;
    p.end_obj()
        .and_then(|()| p.finish())
        .map_err(|_| Reject::Corrupt)?;
    Ok(Record {
        key,
        fp,
        retries,
        report,
    })
}

/// One store file read a line at a time, shared by the decode workers
/// behind a lock: a worker holds it only to take the next line.
struct LineReader {
    reader: BufReader<File>,
    /// Lines handed out so far; the next line's index.
    lines: usize,
    /// The first read failure; the reader yields nothing after it.
    error: Option<std::io::Error>,
}

impl LineReader {
    fn open(path: &Path) -> std::io::Result<Self> {
        Ok(LineReader {
            reader: BufReader::with_capacity(1 << 16, File::open(path)?),
            lines: 0,
            error: None,
        })
    }

    /// Reads the next line into `line`, replacing its contents but
    /// keeping its capacity, so a caller that reuses one buffer stops
    /// allocating once it has held the longest line. Returns the line's
    /// index. Lines split as [`str::lines`] splits them: at `\n`, with a
    /// `\r` before it dropped too, and no empty line after a final `\n`.
    /// The bytes are not checked for UTF-8 here.
    fn next_line(&mut self, line: &mut Vec<u8>) -> Option<usize> {
        if self.error.is_some() {
            return None;
        }
        line.clear();
        match self.reader.read_until(b'\n', line) {
            Ok(0) => None,
            Ok(_) => {
                if line.pop_if(|b| *b == b'\n').is_some() {
                    line.pop_if(|b| *b == b'\r');
                }
                self.lines += 1;
                Some(self.lines - 1)
            }
            Err(e) => {
                self.error = Some(e);
                None
            }
        }
    }

    /// The read failure, if any, once the lines are drained.
    fn finish(self) -> std::io::Result<usize> {
        self.error.map_or(Ok(self.lines), Err)
    }
}

/// What one store line decoded to: the record and whether its stored
/// fingerprint matches the decoded report, or why [`decode_record`]
/// rejects it (a line that is not UTF-8 is corrupt).
type Decoded = Result<(Record, bool), Reject>;

/// Streams the store file at `path` through up to
/// [`worker_budget`](sweep::worker_budget) scoped decode workers. Each
/// takes the next line under the reader's lock, then checks it for
/// UTF-8, decodes it and re-fingerprints the report outside the lock, so
/// only the lines in flight are resident. Results keep line order.
///
/// # Errors
///
/// An open or read failure; the lines read before it are dropped, so
/// an unreadable file contributes nothing.
fn decode_file(path: &Path) -> std::io::Result<Vec<Decoded>> {
    let reader = Mutex::new(LineReader::open(path)?);
    let done: Vec<Vec<(usize, Decoded)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..sweep::worker_budget())
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    let mut line = Vec::new();
                    loop {
                        let next = reader
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .next_line(&mut line);
                        let Some(i) = next else { break };
                        let decoded = std::str::from_utf8(&line)
                            .map_err(|_| Reject::Corrupt)
                            .and_then(decode_record)
                            .map(|record| {
                                let verified = sweep::fingerprint(&record.report) == record.fp;
                                (record, verified)
                            });
                        done.push((i, decoded));
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("record decoder panicked"))
            .collect()
    });
    let lines = reader
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .finish()?;
    let mut out: Vec<Decoded> = Vec::new();
    out.resize_with(lines, || Err(Reject::Corrupt));
    for (i, decoded) in done.into_iter().flatten() {
        out[i] = decoded;
    }
    Ok(out)
}

/// Decodes one segment file (a store's or a campaign worker's) into
/// `latest`, where the last record per key wins, and returns why each
/// rejected line was rejected, in line order. An unreadable file adds
/// nothing.
fn load_segment(path: &Path, latest: &mut HashMap<u64, (Record, bool)>) -> Vec<Reject> {
    let mut rejects = Vec::new();
    for decoded in decode_file(path).unwrap_or_default() {
        match decoded {
            Ok((record, verified)) => {
                latest.insert(record.key, (record, verified));
            }
            Err(why) => rejects.push(why),
        }
    }
    rejects
}

// ---------------------------------------------------------------------
// The writer
// ---------------------------------------------------------------------

/// Appends records to a segment of its own under one directory: the
/// checkpoint store's writer, and each campaign worker's.
pub(crate) struct Writer {
    dir: PathBuf,
    /// The claimed segment, created on the first record, so a writer
    /// that appends nothing leaves no empty file for every later replay
    /// to open.
    file: Option<File>,
    records: usize,
}

impl Writer {
    pub(crate) fn new(dir: &Path) -> Self {
        Writer {
            dir: dir.to_owned(),
            file: None,
            records: 0,
        }
    }

    /// Appends one framed, newline-terminated record. Every
    /// [`SEGMENT_RECORDS`] records the segment and the directory are
    /// synced, so a host crash loses at most the records since.
    pub(crate) fn append(&mut self, line: &str) -> std::io::Result<()> {
        let file = match self.file.take() {
            Some(file) => file,
            None => claim_segment(&self.dir)?,
        };
        let file = self.file.insert(file);
        file.write_all(line.as_bytes())?;
        self.records += 1;
        if self.records.is_multiple_of(SEGMENT_RECORDS) {
            file.sync_all()?;
            sync_dir(&self.dir)?;
        }
        Ok(())
    }
}

fn seg_name(n: u64) -> String {
    format!("seg-{n:05}.jsonl")
}

/// Creates the next free segment in `dir` with `create_new`: one past
/// the highest index there, so its records replay after every record
/// already written, stepping past any index another writer claims first.
fn claim_segment(dir: &Path) -> std::io::Result<File> {
    let (_, mut next) = segments_of(dir);
    loop {
        match File::options()
            .append(true)
            .create_new(true)
            .open(dir.join(seg_name(next)))
        {
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => next += 1,
            claimed => return claimed,
        }
    }
}

/// Segment paths (`seg-*.jsonl`) in name order, plus the next free
/// segment index.
fn segments_of(dir: &Path) -> (Vec<PathBuf>, u64) {
    let mut names: Vec<String> = Vec::new();
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_str().unwrap_or("");
            if name.starts_with("seg-") && name.ends_with(".jsonl") {
                names.push(name.to_owned());
            }
        }
    }
    names.sort();
    let next = names
        .iter()
        .filter_map(|n| n[4..n.len() - 6].parse::<u64>().ok())
        .map(|n| n + 1)
        .max()
        .unwrap_or(0);
    (names.into_iter().map(|n| dir.join(n)).collect(), next)
}

// ---------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------

/// The active checkpoint store's writer, if any.
static STORE: Mutex<Option<Writer>> = Mutex::new(None);

fn store() -> MutexGuard<'static, Option<Writer>> {
    STORE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Activates a **fresh** checkpoint store in `dir`: any existing
/// segments are deleted, and subsequent sweep completions are appended.
/// Use [`resume_from`] to keep (and replay) existing records.
///
/// # Errors
///
/// Propagates directory-creation or cleanup failures.
pub fn set_store(dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for seg in segments_of(dir).0 {
        std::fs::remove_file(seg)?;
    }
    *store() = Some(Writer::new(dir));
    Ok(())
}

/// Replays the store in `dir` into the memo cache ([`replay_dir`]) and
/// keeps the store active: the resumed sweep appends to a segment of its
/// own, after any torn line the replay skipped.
///
/// # Errors
///
/// Propagates directory-creation failures. A missing store directory is
/// not an error — it resumes empty, which is exactly the cold-start
/// case.
pub fn resume_from(dir: &Path) -> std::io::Result<ResumeStats> {
    std::fs::create_dir_all(dir)?;
    let stats = replay_dir(dir);
    *store() = Some(Writer::new(dir));
    Ok(stats)
}

/// Replays every `seg-*.jsonl` segment under `dir`, in name order, into
/// the memo cache. This one reader serves a checkpoint resume (and so
/// `analyze --dir`) and the campaign merge, so both drop torn and
/// corrupt lines by one policy. It reads and never writes: an
/// unreadable segment contributes nothing.
///
/// Every valid record is fingerprint-verified (the hash is recomputed
/// from the deserialized report and compared against the stored value)
/// before it seeds the cache; mismatches count as skipped and the point
/// re-runs. Each file is streamed through the decode workers, with
/// results kept in line order, and the last record per key wins.
pub(crate) fn replay_dir(dir: &Path) -> ResumeStats {
    let mut stats = ResumeStats::default();
    // Last record wins per key; only the survivor's verification counts.
    let mut latest: HashMap<u64, (Record, bool)> = HashMap::new();
    let mut rejects = Vec::new();
    let (segs, _) = segments_of(dir);
    stats.segments = segs.len();
    for seg in &segs {
        rejects.extend(load_segment(seg, &mut latest));
    }

    // Seed the memo with every survivor that may stand in for a
    // simulation: its fingerprint verified and its report is
    // checkpointable. Each seeded entry carries the record's retries as
    // restored provenance, so the first sweep that serves it reports
    // what the uninterrupted run did.
    let survivors = latest.len();
    for (record, verified) in latest.into_values() {
        if verified && sweep::checkpointable(&record.report) {
            sweep::seed_cache_entry(record);
            stats.loaded += 1;
        }
    }
    stats.older = rejects
        .iter()
        .filter(|&&why| why == Reject::OlderVersion)
        .count();
    stats.skipped = rejects.len() + survivors - stats.loaded;
    stats
}

/// Deactivates the store; completed runs are no longer persisted.
pub fn disable_store() {
    *store() = None;
}

/// Whether a checkpoint store is currently active.
#[must_use]
pub fn is_active() -> bool {
    store().is_some()
}

/// Appends one completed run. Called from sweep workers; IO failures
/// degrade to a warning — losing a checkpoint record costs a future
/// re-simulation, never the sweep.
///
/// The record is framed before the store lock is taken, so concurrent
/// workers encode in parallel and the lock guards only the append.
pub(crate) fn append_completed(key: u64, report: &RunReport, fp: u64, retries: u32) {
    if !is_active() {
        return;
    }
    let mut line = encode_record(key, report, fp, retries);
    line.push('\n');
    if let Some(writer) = store().as_mut() {
        if let Err(e) = writer.append(&line) {
            eprintln!("checkpoint: dropping record for key {key:016x}: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vector() {
        // The classic IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
    }

    #[test]
    fn crc32_slice_by_8_matches_the_bytewise_loop() {
        let mut state = 1u64;
        let bytes: Vec<u8> = (0..80)
            .map(|_| {
                state = scalesim_simkit::splitmix64(state);
                state as u8
            })
            .collect();
        for start in [0, 1, 3, 7, 8, 13] {
            for len in 0..=64 {
                let slice = &bytes[start..start + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(0xffff_ffff, slice) ^ 0xffff_ffff,
                    "start {start}, len {len}"
                );
            }
        }
    }

    #[test]
    fn record_framing_round_trips_and_rejects_corruption() {
        let spec = crate::RunSpec::new(scalesim_workloads::xalan().scaled(0.002), 2, 9);
        let report = spec.run().unwrap();
        let fp = sweep::fingerprint(&report);
        let line = encode_record(spec.memo_key(), &report, fp, 1);
        let decoded = decode_record(&line).expect("valid record decodes");
        assert_eq!(decoded.key, spec.memo_key());
        assert_eq!(decoded.fp, fp);
        assert_eq!(decoded.retries, 1);
        assert_eq!(sweep::fingerprint(&decoded.report), fp);
        // A flipped byte in the body fails the crc.
        let corrupt = line.replace("\"v\":1", "\"v\":2");
        assert_eq!(decode_record(&corrupt).err(), Some(Reject::Corrupt));
        // A torn prefix fails too.
        assert_eq!(
            decode_record(&line[..line.len() / 2]).err(),
            Some(Reject::Corrupt)
        );
        assert_eq!(decode_record("").err(), Some(Reject::Corrupt));
    }

    #[test]
    fn resume_keeps_the_last_valid_record() {
        // Synthetic keys no sweep ever requests, so concurrent tests
        // cannot claim or evict what this one seeds.
        const K: [u64; 5] = [
            0x5ca1_e5ee_d000_0001,
            0x5ca1_e5ee_d000_0002,
            0x5ca1_e5ee_d000_0003,
            0x5ca1_e5ee_d000_0004,
            0x5ca1_e5ee_d000_0005,
        ];
        let first = crate::RunSpec::new(scalesim_workloads::xalan().scaled(0.002), 2, 9)
            .run()
            .unwrap();
        let mut second = first.clone();
        second.host_ns = first.host_ns + 1;
        let (fp1, fp2) = (sweep::fingerprint(&first), sweep::fingerprint(&second));
        let dir = fresh_dir("resume");
        let seg0 = [
            encode_record(K[0], &first, fp1, 0),
            encode_record(K[1], &first, fp1, 0),
        ];
        let seg1 = [
            encode_record(K[2], &first, fp1 ^ 1, 0),
            encode_record(K[3], &first, fp1, 1),
        ];
        // The later record for K[1] wins over the earlier one.
        let winner = encode_record(K[1], &second, fp2, 3);
        let torn = encode_record(K[4], &first, fp1, 0);
        let seg2 = format!("{winner}\n{}", &torn[..torn.len() / 2]);
        std::fs::write(dir.join(seg_name(0)), seg0.join("\n") + "\n").unwrap();
        std::fs::write(dir.join(seg_name(1)), seg1.join("\n") + "\n").unwrap();
        std::fs::write(dir.join(seg_name(2)), &seg2).unwrap();

        let (stats, cached, retries) = resume_and_collect(&dir, &K);
        // The torn line stays where it is; the resumed writer appends to a
        // segment of its own.
        let last = std::fs::read_to_string(dir.join(seg_name(2))).unwrap();
        let _ = std::fs::remove_dir_all(&dir);

        assert_eq!(
            stats,
            ResumeStats {
                loaded: 3,
                skipped: 2,
                older: 0,
                segments: 3,
            }
        );
        assert_eq!(retries, [Some(0), Some(3), None, Some(1), None]);
        assert_eq!(last, seg2);
        let expected = [Some(&first), Some(&second), None, Some(&first), None];
        for ((entry, want), key) in cached.iter().zip(expected).zip(K) {
            assert_eq!(
                entry,
                &want.map(|r| (format!("{r:?}"), sweep::fingerprint(r))),
                "key {key:016x}"
            );
        }
    }

    #[test]
    fn record_bytes_are_pinned() {
        // A change here changes the store format, so records written by
        // earlier builds no longer resume. Bump the snapshot version
        // with it: those records are then skipped as older ones.
        const K: u64 = 0x5ca1_e5ee_d000_0010;
        let traced = sweep::traced_fixture(0.002);
        let quarantined = RunReport::quarantined(
            "xalan",
            8,
            8,
            "panic: \"quoted\" back\\slash\nline two".to_owned(),
        );
        for (report, len, crc) in [
            (&traced, 94_037, 0xa08f_6f48),
            (&quarantined, 879, 0xb53a_bc19),
        ] {
            let fp = sweep::fingerprint(report);
            let line = encode_record(K, report, fp, 1);
            assert_eq!((line.len(), crc32(line.as_bytes())), (len, crc));
            let decoded = decode_record(&line).expect("pinned record decodes");
            assert_eq!(decoded.key, K);
            assert_eq!(sweep::fingerprint(&decoded.report), fp);
        }
    }

    /// A store holding one record from the build before snapshot
    /// version 2: the quarantined record `record_bytes_are_pinned` pinned
    /// then (879 bytes, crc 0x2fc573dd), with each timeline event an
    /// array of its own.
    const V1_RECORD: &str = include_str!("../fixtures/record-snapshot-v1.jsonl");

    #[test]
    fn a_record_in_an_older_snapshot_version_is_skipped_as_older() {
        let line = V1_RECORD.trim_end();
        assert_eq!((line.len(), crc32(line.as_bytes())), (879, 0x2fc5_73dd));
        // Intact framing, an older report schema: named, not corrupt.
        assert_eq!(decode_record(line).err(), Some(Reject::OlderVersion));
        let key = 0x5ca1_e5ee_d000_0010;
        let dir = fresh_dir("v1");
        std::fs::write(dir.join(seg_name(0)), V1_RECORD).unwrap();
        let (stats, cached, _) = resume_and_collect(&dir, &[key]);
        let _ = std::fs::remove_dir_all(&dir);

        assert_eq!(
            stats,
            ResumeStats {
                loaded: 0,
                skipped: 1,
                older: 1,
                segments: 1,
            }
        );
        assert_eq!(cached, [None]);
    }

    /// A small, distinct report per index: quarantined stubs carry no
    /// timeline, so a record costs well under a kilobyte.
    fn stub(i: usize) -> RunReport {
        RunReport::quarantined("xalan", i + 1, 8, format!("stub {i}"))
    }

    fn fresh_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("scalesim-ckpt-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// `line` with one byte of its JSON body overwritten by `0xFF`, which
    /// is never valid UTF-8.
    fn poisoned(line: &str) -> Vec<u8> {
        let mut bytes = line.as_bytes().to_vec();
        bytes[200] = 0xff;
        bytes
    }

    /// Per key, the seeded memo entry as `(Debug, fp)`.
    type Seeded = Vec<Option<(String, u64)>>;

    /// Resumes `dir`, then reads back what the resume seeded for `keys`:
    /// the stats, and per key the seeded entry and its restored retries.
    fn resume_and_collect(dir: &Path, keys: &[u64]) -> (ResumeStats, Seeded, Vec<Option<u32>>) {
        let stats = resume_from(dir).unwrap();
        disable_store();
        let entries: Vec<_> = keys.iter().map(|&k| sweep::cached_entry(k)).collect();
        let cached = entries
            .iter()
            .map(|entry| {
                let e = entry.as_ref()?;
                Some((format!("{:?}", e.report), e.fp))
            })
            .collect();
        let retries = entries
            .iter()
            .map(|entry| entry.as_ref().and_then(|e| e.restored))
            .collect();
        (stats, cached, retries)
    }

    #[test]
    fn streamed_segment_matches_the_whole_file_read() {
        // More records than decode workers, so every worker reads several
        // lines and results must be put back in line order.
        let n = 2 * sweep::worker_budget() + 3;
        let keys: Vec<u64> = (0..n as u64).map(|i| 0x5ca1_e5ee_d000_0100 + i).collect();
        let mut lines: Vec<String> = (0..n)
            .map(|i| {
                let report = stub(i);
                encode_record(keys[i], &report, sweep::fingerprint(&report), i as u32)
            })
            .collect();
        // A stale fingerprint in the middle, a later record for key 1 that
        // must win over the first, and a torn last line.
        lines[n / 2] = encode_record(keys[n / 2], &stub(n / 2), 0xbad, 0);
        let dup = stub(n);
        lines.push(encode_record(keys[1], &dup, sweep::fingerprint(&dup), 9));
        let torn = encode_record(keys[0] + 0x80, &stub(0), 0, 0);
        let text = format!("{}\n{}", lines.join("\n"), &torn[..torn.len() / 2]);

        // The whole-file reference: one serial pass over `str::lines`.
        let mut latest: HashMap<u64, Record> = HashMap::new();
        let mut skipped = 0;
        for line in text.lines() {
            match decode_record(line) {
                Ok(record) => {
                    latest.insert(record.key, record);
                }
                Err(_) => skipped += 1,
            }
        }
        let verified = |r: &Record| sweep::fingerprint(&r.report) == r.fp;
        let loaded = latest.values().filter(|r| verified(r)).count();
        skipped += latest.len() - loaded;
        let want_cached: Vec<_> = keys
            .iter()
            .map(|k| {
                let r = latest.get(k).filter(|r| verified(r))?;
                Some((format!("{:?}", r.report), r.fp))
            })
            .collect();
        let want_retries: Vec<_> = keys
            .iter()
            .map(|k| latest.get(k).filter(|r| verified(r)).map(|r| r.retries))
            .collect();

        let dir = fresh_dir("stream");
        std::fs::write(dir.join(seg_name(0)), &text).unwrap();
        let (stats, cached, retries) = resume_and_collect(&dir, &keys);
        let _ = std::fs::remove_dir_all(&dir);

        assert_eq!((loaded, skipped), (n - 1, 2));
        assert_eq!(
            stats,
            ResumeStats {
                loaded,
                skipped,
                older: 0,
                segments: 1,
            }
        );
        assert_eq!(cached, want_cached);
        assert_eq!(retries, want_retries);
    }

    #[test]
    fn a_host_time_truncation_in_the_tail_is_skipped() {
        use scalesim_core::RunOutcome;
        use scalesim_simkit::AbortReason;
        let keys: Vec<u64> = (0..2).map(|i| 0x5ca1_e5ee_d000_0400 + i).collect();
        let mut truncated = stub(1);
        truncated.outcome = RunOutcome::Truncated(AbortReason::MaxHostMs(250));
        let lines: Vec<String> = [stub(0), truncated]
            .iter()
            .zip(&keys)
            .map(|(report, &key)| encode_record(key, report, sweep::fingerprint(report), 0))
            .collect();
        let dir = fresh_dir("hostms");
        std::fs::write(dir.join(seg_name(0)), lines.join("\n") + "\n").unwrap();
        let (stats, cached, _) = resume_and_collect(&dir, &keys);
        let _ = std::fs::remove_dir_all(&dir);

        // The last record decodes and verifies, but a host-time
        // truncation never stands in for a simulation.
        assert_eq!(
            stats,
            ResumeStats {
                loaded: 1,
                skipped: 1,
                older: 0,
                segments: 1,
            }
        );
        let seeded: Vec<bool> = cached.iter().map(Option::is_some).collect();
        assert_eq!(seeded, [true, false]);
    }

    #[test]
    fn a_bad_byte_in_the_tail_skips_only_its_record() {
        let keys: Vec<u64> = (0..3).map(|i| 0x5ca1_e5ee_d000_0200 + i).collect();
        let lines: Vec<String> = (0..3)
            .map(|i| {
                let report = stub(i);
                encode_record(keys[i], &report, sweep::fingerprint(&report), 0)
            })
            .collect();
        let mut text = format!("{}\n", lines[0]).into_bytes();
        text.extend(poisoned(&lines[1]));
        text.extend(format!("\n{}\n", lines[2]).into_bytes());
        // The store's tail is its newest segment, the one a writer last
        // appended to.
        let dir = fresh_dir("badbyte");
        std::fs::write(dir.join(seg_name(0)), &text).unwrap();
        let (stats, cached, _) = resume_and_collect(&dir, &keys);
        // The replay rewrites nothing: the bad line stays, skipped again
        // by every later replay.
        let after = std::fs::read(dir.join(seg_name(0))).unwrap();
        let _ = std::fs::remove_dir_all(&dir);

        assert_eq!(
            stats,
            ResumeStats {
                loaded: 2,
                skipped: 1,
                older: 0,
                segments: 1,
            }
        );
        let seeded: Vec<bool> = cached.iter().map(Option::is_some).collect();
        assert_eq!(seeded, [true, false, true]);
        assert_eq!(after, text);
    }

    #[test]
    fn a_bad_byte_in_a_segment_rejects_only_its_line() {
        let keys: Vec<u64> = (0..3).map(|i| 0x5ca1_e5ee_d000_0300 + i).collect();
        let lines: Vec<String> = (0..3)
            .map(|i| {
                let report = stub(i);
                encode_record(keys[i], &report, sweep::fingerprint(&report), 0)
            })
            .collect();
        let mut text = format!("{}\n", lines[0]).into_bytes();
        text.extend(poisoned(&lines[1]));
        text.extend(format!("\n{}\n", lines[2]).into_bytes());
        let dir = fresh_dir("badbyte-seg");
        let path = dir.join(seg_name(0));
        std::fs::write(&path, &text).unwrap();
        let mut latest = HashMap::new();
        let rejected = load_segment(&path, &mut latest);
        let _ = std::fs::remove_dir_all(&dir);

        assert_eq!(rejected, [Reject::Corrupt]);
        let mut loaded: Vec<(u64, bool)> = latest.iter().map(|(&k, (_, v))| (k, *v)).collect();
        loaded.sort_unstable();
        assert_eq!(loaded, [(keys[0], true), (keys[2], true)]);
    }

    #[test]
    fn writers_append_to_segments_of_their_own() {
        let keys: Vec<u64> = (0..5).map(|i| 0x5ca1_e5ee_d000_0500 + i).collect();
        let lines: Vec<String> = (0..5)
            .map(|i| {
                let report = stub(i);
                encode_record(keys[i], &report, sweep::fingerprint(&report), 0) + "\n"
            })
            .collect();
        let dir = fresh_dir("writers");
        // A dead writer's segment: one record, then a line torn mid-write.
        let dead = format!("{}{}", lines[0], &lines[4][..lines[4].len() / 2]);
        std::fs::write(dir.join(seg_name(0)), &dead).unwrap();
        // Two writers interleave; an idle one claims nothing.
        let (mut a, mut b, _idle) = (Writer::new(&dir), Writer::new(&dir), Writer::new(&dir));
        a.append(&lines[1]).unwrap();
        b.append(&lines[2]).unwrap();
        a.append(&lines[3]).unwrap();
        drop((a, b));
        let (segs, _) = segments_of(&dir);
        let names: Vec<_> = segs.iter().filter_map(|p| p.file_name()).collect();
        let torn = std::fs::read_to_string(dir.join(seg_name(0))).unwrap();
        let stats = replay_dir(&dir);
        let seeded: Vec<bool> = keys
            .iter()
            .map(|&k| sweep::cached_entry(k).is_some())
            .collect();
        let _ = std::fs::remove_dir_all(&dir);

        assert_eq!(
            names,
            ["seg-00000.jsonl", "seg-00001.jsonl", "seg-00002.jsonl"]
        );
        assert_eq!(torn, dead, "a writer appended onto the torn line");
        assert_eq!(
            stats,
            ResumeStats {
                loaded: 4,
                skipped: 1,
                older: 0,
                segments: 3,
            }
        );
        assert_eq!(seeded, [true, true, true, true, false]);
    }

    #[test]
    fn segment_names_sort_and_index() {
        let dir = std::env::temp_dir().join(format!("scalesim-ckpt-segs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(seg_name(0)), "").unwrap();
        std::fs::write(dir.join(seg_name(3)), "").unwrap();
        let (segs, next) = segments_of(&dir);
        assert_eq!(segs.len(), 2);
        assert_eq!(next, 4);
        assert!(segs[0].ends_with("seg-00000.jsonl"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
