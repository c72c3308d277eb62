//! Append-only redo log.
//!
//! Every mutation of the store is written as a [`LogRecord`] inside a framed,
//! CRC-protected entry. A transaction appears in the log as
//! `Begin … mutations … Commit`; recovery applies only mutations belonging to
//! committed transactions, so a crash between frames (a "torn tail") simply
//! loses the uncommitted suffix — the same durability contract the thesis
//! gets from POET's transaction manager.
//!
//! Frame layout on disk:
//!
//! ```text
//! +----------------+----------------+------------------+
//! | len: u32 LE    | crc32: u32 LE  | payload (len B)  |
//! +----------------+----------------+------------------+
//! ```
//!
//! The payload is a [`LogRecord`] encoded with [`crate::codec`].

use crate::codec;
use crate::crc::crc32;
use crate::error::{StorageError, StorageResult};
use crate::oid::Oid;
use serde::{Deserialize, Serialize};
use std::fs::{File, OpenOptions};
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Maximum frame payload the reader will accept; guards recovery against a
/// corrupted length word sending it on a gigabyte-sized read.
const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

/// Logical operations recorded in the log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LogRecord {
    /// A transaction began.
    Begin { txn: u64 },
    /// A transaction committed; `next_oid` is the OID allocator's high-water
    /// mark so recovery never re-issues identifiers.
    Commit { txn: u64, next_oid: u64 },
    /// A record was written (insert or update).
    Put { txn: u64, oid: Oid, bytes: Vec<u8> },
    /// A record was deleted.
    Delete { txn: u64, oid: Oid },
    /// An entry was written in an ordered keyspace (secondary indexes).
    KvPut {
        txn: u64,
        keyspace: u8,
        key: Vec<u8>,
        value: Vec<u8>,
    },
    /// An entry was removed from an ordered keyspace.
    KvDelete {
        txn: u64,
        keyspace: u8,
        key: Vec<u8>,
    },
    // New variants append only: the codec identifies variants by position, so
    // reordering would misread logs written by earlier builds.
    /// A unit of work opened. Transactions between this frame and the
    /// matching [`LogRecord::UnitEnd`] form one atomic group.
    UnitBegin { unit: u64 },
    /// A unit of work settled. Recovery applies the group's transactions only
    /// when `committed` is true; a missing or false seal discards them all.
    UnitEnd { unit: u64, committed: bool },
    /// Two-phase commit, phase one: this shard's portion of a cross-shard
    /// unit is complete and durable. `gid` is the global unit id (the
    /// coordinator shard's unit id) and `coordinator` the shard index whose
    /// log carries the authoritative [`LogRecord::UnitDecision`]. A log that
    /// ends after this frame but before the matching `UnitEnd` is *in doubt*:
    /// recovery must consult the coordinator instead of presuming abort.
    UnitPrepared {
        unit: u64,
        gid: u64,
        coordinator: u32,
    },
    /// Two-phase commit decision record, written (and fsynced) only on the
    /// coordinator shard before any participant seals. Its presence is the
    /// commit point: a prepared unit whose coordinator log lacks a decision
    /// for `gid` is presumed aborted.
    UnitDecision { gid: u64, committed: bool },
    /// Distributed trace correlation mark: the wire request settling `unit`
    /// ran under the 128-bit trace id `(trace_hi, trace_lo)`. Purely
    /// observational — recovery and the image ignore it — but replication
    /// followers replay it so their `replica_apply` spans carry the *same*
    /// trace id the primary's commit spans do, stitching one distributed
    /// span tree across processes.
    UnitTrace {
        unit: u64,
        trace_hi: u64,
        trace_lo: u64,
    },
}

impl LogRecord {
    /// The transaction (or unit) this record belongs to.
    pub fn txn(&self) -> u64 {
        match self {
            LogRecord::Begin { txn }
            | LogRecord::Commit { txn, .. }
            | LogRecord::Put { txn, .. }
            | LogRecord::Delete { txn, .. }
            | LogRecord::KvPut { txn, .. }
            | LogRecord::KvDelete { txn, .. } => *txn,
            LogRecord::UnitBegin { unit }
            | LogRecord::UnitEnd { unit, .. }
            | LogRecord::UnitPrepared { unit, .. }
            | LogRecord::UnitTrace { unit, .. } => *unit,
            LogRecord::UnitDecision { gid, .. } => *gid,
        }
    }
}

/// fsync the directory containing `path`, making a just-created or
/// just-renamed log file's directory entry itself durable.
///
/// `sync_data` on the file alone does not persist the rename/creation
/// metadata: after a power loss the parent directory may still point at the
/// old inode (or at nothing). Called after the writer creates the file and
/// after compaction renames the fresh image into place. A relative path with
/// no parent component syncs the current directory.
pub fn fsync_parent_dir(path: &Path) -> StorageResult<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    let dir = File::open(parent)?;
    dir.sync_all()?;
    Ok(())
}

/// Sequential writer over the log file.
#[derive(Debug)]
pub struct LogWriter {
    writer: BufWriter<File>,
    /// Byte offset the next frame will start at.
    offset: u64,
}

impl LogWriter {
    /// Open (creating if necessary) the log at `path`, positioned at
    /// `valid_len` — the end of the last fully-recovered frame. Anything
    /// after `valid_len` is a torn tail and is truncated away.
    pub fn open(path: &Path, valid_len: u64) -> StorageResult<Self> {
        let file = OpenOptions::new()
            .create(true)
            .truncate(false) // recovery truncates precisely, via set_len below
            .read(true)
            .write(true)
            .open(path)?;
        // Make the file's directory entry durable: creating (or truncating
        // after a torn tail) only becomes crash-safe once the parent
        // directory is synced too.
        fsync_parent_dir(path)?;
        file.set_len(valid_len)?;
        let mut writer = BufWriter::new(file);
        writer.seek(SeekFrom::Start(valid_len))?;
        Ok(LogWriter {
            writer,
            offset: valid_len,
        })
    }

    /// Append one record; returns the byte offset of its frame.
    pub fn append(&mut self, record: &LogRecord) -> StorageResult<u64> {
        let payload = codec::to_bytes(record)?;
        if payload.len() as u64 > MAX_FRAME_LEN as u64 {
            return Err(StorageError::Codec(format!(
                "record of {} bytes exceeds maximum frame size",
                payload.len()
            )));
        }
        let at = self.offset;
        self.writer
            .write_all(&(payload.len() as u32).to_le_bytes())?;
        self.writer.write_all(&crc32(&payload).to_le_bytes())?;
        self.writer.write_all(&payload)?;
        self.offset += 8 + payload.len() as u64;
        Ok(at)
    }

    /// Flush buffered frames and fsync to stable storage.
    pub fn sync(&mut self) -> StorageResult<()> {
        self.writer.flush()?;
        self.writer.get_ref().sync_data()?;
        Ok(())
    }

    /// Flush without fsync (used when durability is relaxed for benchmarks).
    pub fn flush(&mut self) -> StorageResult<()> {
        self.writer.flush()?;
        Ok(())
    }

    /// Offset at which the next frame will be written.
    pub fn len(&self) -> u64 {
        self.offset
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.offset == 0
    }
}

/// Streaming reader over the valid frame prefix of a log file.
///
/// Recovery pulls frames one at a time through [`FrameReader::next_record`]
/// and hands each decoded record on by value, so replay never holds more
/// than one frame's payload besides what the caller buffers itself. The
/// payload buffer is reused across frames, and each payload is read through
/// `Read::take(len)`: a corrupt length word allocates only the bytes the
/// file actually holds, never the length it claims.
///
/// Reading stops — without error — at the first torn or corrupt frame
/// (short header, oversized or short payload, CRC mismatch, undecodable
/// record); everything before that point is the authoritative history and
/// [`FrameReader::valid_len`] is where it ends.
#[derive(Debug)]
pub struct FrameReader {
    /// `None` once reading has stopped (or when the file does not exist).
    reader: Option<BufReader<File>>,
    payload: Vec<u8>,
    /// End of the last frame returned: the valid prefix read so far.
    offset: u64,
    /// Frames must end at or before this offset.
    end: u64,
}

impl FrameReader {
    /// Read the log at `path` from its first frame. A missing file reads as
    /// an empty log.
    pub fn open(path: &Path) -> StorageResult<FrameReader> {
        let file = match File::open(path) {
            Ok(f) => Some(f),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(e.into()),
        };
        Ok(FrameReader::over(file, 0, u64::MAX))
    }

    /// Read `file` from `offset` (already seeked to), accepting only frames
    /// that end at or before `end`.
    fn over(file: Option<File>, offset: u64, end: u64) -> FrameReader {
        FrameReader {
            reader: file.map(BufReader::new),
            payload: Vec::new(),
            offset,
            end,
        }
    }

    /// The next valid frame's record, or `None` at the end of the valid
    /// prefix. Once it has returned `None` it keeps doing so.
    pub fn next_record(&mut self) -> StorageResult<Option<LogRecord>> {
        let record = self.read_frame()?;
        if record.is_none() {
            self.reader = None;
        }
        Ok(record)
    }

    /// Length of the valid prefix read so far: the offset just past the
    /// last frame [`FrameReader::next_record`] returned.
    pub fn valid_len(&self) -> u64 {
        self.offset
    }

    fn read_frame(&mut self) -> StorageResult<Option<LogRecord>> {
        let Some(reader) = self.reader.as_mut() else {
            return Ok(None);
        };
        if self.offset.saturating_add(8) > self.end {
            return Ok(None); // a frame header cannot straddle `end`
        }
        let mut header = [0u8; 8];
        match read_exact_or_eof(reader, &mut header)? {
            ReadOutcome::Full => {}
            ReadOutcome::Eof | ReadOutcome::Partial => return Ok(None), // end, or torn header
        }
        let len = u32::from_le_bytes(header[0..4].try_into().unwrap());
        let crc = u32::from_le_bytes(header[4..8].try_into().unwrap());
        let frame_end = self.offset + 8 + len as u64;
        if len > MAX_FRAME_LEN || frame_end > self.end {
            return Ok(None); // corrupt length word, or not a frame boundary
        }
        self.payload.clear();
        reader
            .by_ref()
            .take(len as u64)
            .read_to_end(&mut self.payload)?;
        if self.payload.len() != len as usize {
            return Ok(None); // torn payload
        }
        if crc32(&self.payload) != crc {
            return Ok(None); // corrupt payload
        }
        let Ok(record) = codec::from_bytes::<LogRecord>(&self.payload) else {
            return Ok(None); // undecodable payload
        };
        self.offset = frame_end;
        Ok(Some(record))
    }
}

/// Read frames from `offset` up to `end` (a known committed frame boundary),
/// stopping after at least `max_bytes` of frame data have been collected.
///
/// Returns the decoded records and the offset of the first unread frame.
/// `Ok(None)` means `offset` does not sit on a decodable frame boundary —
/// which happens when the log was rewritten underneath the caller (compaction
/// on the primary while a replication follower still holds byte cursors into
/// the old file). Callers treat `None` as "your cursor is meaningless,
/// re-handshake from scratch".
pub fn tail(
    path: &Path,
    offset: u64,
    max_bytes: u64,
    end: u64,
) -> StorageResult<Option<(Vec<LogRecord>, u64)>> {
    let mut file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    file.seek(SeekFrom::Start(offset))?;
    // A file shorter than `end` (rewritten underneath us) or bytes that are
    // not a frame boundary simply end the read early.
    let mut reader = FrameReader::over(Some(file), offset, end);
    let mut frames = Vec::new();
    while reader.valid_len() - offset < max_bytes.max(1) {
        match reader.next_record()? {
            Some(record) => frames.push(record),
            None => break,
        }
    }
    let at = reader.valid_len();
    if frames.is_empty() && at < end {
        // We were asked for data that provably exists but could not decode a
        // single frame at `offset`: the cursor is misaligned.
        return Ok(None);
    }
    Ok(Some((frames, at)))
}

enum ReadOutcome {
    Full,
    Partial,
    Eof,
}

fn read_exact_or_eof<R: Read>(reader: &mut R, buf: &mut [u8]) -> StorageResult<ReadOutcome> {
    let mut filled = 0;
    while filled < buf.len() {
        let n = reader.read(&mut buf[filled..])?;
        if n == 0 {
            return Ok(if filled == 0 {
                ReadOutcome::Eof
            } else {
                ReadOutcome::Partial
            });
        }
        filled += n;
    }
    Ok(ReadOutcome::Full)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "prometheus-log-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Every record of the valid prefix plus its length. Test logs are a
    /// handful of frames, so collecting them is fine here.
    fn read_all(path: &Path) -> (Vec<LogRecord>, u64) {
        let mut reader = FrameReader::open(path).unwrap();
        let mut records = Vec::new();
        while let Some(record) = reader.next_record().unwrap() {
            records.push(record);
        }
        (records, reader.valid_len())
    }

    fn sample_records() -> Vec<LogRecord> {
        vec![
            LogRecord::Begin { txn: 1 },
            LogRecord::Put {
                txn: 1,
                oid: Oid::from_raw(10),
                bytes: vec![1, 2, 3],
            },
            LogRecord::KvPut {
                txn: 1,
                keyspace: 2,
                key: b"k".to_vec(),
                value: b"v".to_vec(),
            },
            LogRecord::Delete {
                txn: 1,
                oid: Oid::from_raw(9),
            },
            LogRecord::Commit {
                txn: 1,
                next_oid: 11,
            },
        ]
    }

    #[test]
    fn append_then_scan_round_trips() {
        let path = tmp_dir().join("roundtrip.log");
        let _ = std::fs::remove_file(&path);
        let mut w = LogWriter::open(&path, 0).unwrap();
        let records = sample_records();
        for r in &records {
            w.append(r).unwrap();
        }
        w.sync().unwrap();
        let (read, valid_len) = read_all(&path);
        assert_eq!(read, records);
        assert_eq!(valid_len, w.len());
    }

    #[test]
    fn scan_of_missing_file_is_empty() {
        let path = tmp_dir().join("nonexistent.log");
        let _ = std::fs::remove_file(&path);
        let (read, valid_len) = read_all(&path);
        assert!(read.is_empty());
        assert_eq!(valid_len, 0);
    }

    #[test]
    fn torn_tail_is_ignored() {
        let path = tmp_dir().join("torn.log");
        let _ = std::fs::remove_file(&path);
        let mut w = LogWriter::open(&path, 0).unwrap();
        for r in sample_records() {
            w.append(&r).unwrap();
        }
        w.sync().unwrap();
        let good_len = w.len();
        drop(w);
        // Simulate a crash mid-append: write half a frame header.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[0x05, 0x00]).unwrap();
        f.sync_data().unwrap();
        let (read, valid_len) = read_all(&path);
        assert_eq!(read.len(), 5);
        assert_eq!(valid_len, good_len);
    }

    #[test]
    fn corrupt_payload_stops_scan() {
        let path = tmp_dir().join("corrupt.log");
        let _ = std::fs::remove_file(&path);
        let mut w = LogWriter::open(&path, 0).unwrap();
        for r in sample_records() {
            w.append(&r).unwrap();
        }
        w.sync().unwrap();
        drop(w);
        // Flip one byte in the middle of the file.
        let mut data = std::fs::read(&path).unwrap();
        let mid = data.len() / 2;
        data[mid] ^= 0xFF;
        std::fs::write(&path, &data).unwrap();
        let (read, _) = read_all(&path);
        assert!(read.len() < 5, "scan must stop at the corrupted frame");
    }

    #[test]
    fn reopening_truncates_torn_tail() {
        let path = tmp_dir().join("reopen.log");
        let _ = std::fs::remove_file(&path);
        let mut w = LogWriter::open(&path, 0).unwrap();
        w.append(&LogRecord::Begin { txn: 1 }).unwrap();
        w.sync().unwrap();
        let good = w.len();
        drop(w);
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"garbage").unwrap();
        drop(f);
        let (_, valid_len) = read_all(&path);
        let mut w = LogWriter::open(&path, valid_len).unwrap();
        assert_eq!(w.len(), good);
        w.append(&LogRecord::Commit {
            txn: 1,
            next_oid: 1,
        })
        .unwrap();
        w.sync().unwrap();
        assert_eq!(read_all(&path).0.len(), 2);
    }

    #[test]
    fn corrupt_length_word_allocates_only_what_the_file_holds() {
        let path = tmp_dir().join("huge-len.log");
        let _ = std::fs::remove_file(&path);
        let mut w = LogWriter::open(&path, 0).unwrap();
        w.append(&LogRecord::Begin { txn: 1 }).unwrap();
        w.sync().unwrap();
        let good = w.len();
        drop(w);
        // A header claiming a payload just under the frame cap, followed by
        // a few bytes: the reader must not size its buffer off the claim.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&(MAX_FRAME_LEN - 1).to_le_bytes()).unwrap();
        f.write_all(&0u32.to_le_bytes()).unwrap();
        f.write_all(&[7u8; 100]).unwrap();
        drop(f);
        let mut reader = FrameReader::open(&path).unwrap();
        assert!(reader.next_record().unwrap().is_some());
        assert!(reader.next_record().unwrap().is_none());
        assert!(reader.next_record().unwrap().is_none());
        assert_eq!(reader.valid_len(), good);
        assert!(
            reader.payload.capacity() < 64 * 1024,
            "payload buffer grew to {} bytes for a 100-byte torn frame",
            reader.payload.capacity()
        );
    }

    #[test]
    fn tail_stops_at_the_committed_end() {
        let path = tmp_dir().join("tail.log");
        let _ = std::fs::remove_file(&path);
        let mut w = LogWriter::open(&path, 0).unwrap();
        let mut ends = Vec::new();
        for r in sample_records() {
            w.append(&r).unwrap();
            ends.push(w.len());
        }
        w.sync().unwrap();
        // Up to the third frame's end, one frame per batch byte budget.
        let (frames, next) = tail(&path, 0, 1, ends[2]).unwrap().unwrap();
        assert_eq!(frames, sample_records()[..1]);
        assert_eq!(next, ends[0]);
        let (frames, next) = tail(&path, ends[0], u64::MAX, ends[2]).unwrap().unwrap();
        assert_eq!(frames, sample_records()[1..3]);
        assert_eq!(next, ends[2]);
        // A cursor inside a frame is misaligned.
        assert!(tail(&path, 3, u64::MAX, ends[4]).unwrap().is_none());
    }
}
