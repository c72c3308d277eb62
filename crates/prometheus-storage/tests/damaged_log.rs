//! Recovery against damaged logs: a small log of plain transactions and
//! units of work is truncated at every byte offset, and separately has one
//! byte flipped at every offset. Each reopen must rebuild exactly the image
//! of the committed prefix and leave the file cut back to its last valid
//! frame (plus, when the cut fell inside a unit, the abort seal recovery
//! appends for it).

use prometheus_storage::log::{FrameReader, LogRecord};
use prometheus_storage::{Keyspace, Oid, Store, StoreOptions};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

const KS: Keyspace = Keyspace(1);

/// The observable image: every record and every entry of keyspace `KS`.
#[derive(Debug, Clone, Default, PartialEq)]
struct Model {
    records: BTreeMap<u64, Vec<u8>>,
    kv: BTreeMap<Vec<u8>, Vec<u8>>,
}

fn image_of(store: &Store, oids: &[Oid]) -> Model {
    Model {
        records: oids
            .iter()
            .filter_map(|&oid| store.get(oid).map(|b| (oid.raw(), b.to_vec())))
            .collect(),
        kv: store
            .kv_scan_prefix(KS, b"")
            .into_iter()
            .map(|(k, v)| (k.to_vec(), v.to_vec()))
            .collect(),
    }
}

fn temp_path(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "prometheus-damaged-{name}-{}.log",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

/// The intact log's bytes, the OIDs it uses, and every settle point: the
/// log length at which a group became durable and the image it produced.
struct Written {
    bytes: Vec<u8>,
    oids: Vec<Oid>,
    settled: Vec<(u64, Model)>,
}

fn write_log(path: &Path) -> Written {
    let store = Store::open_with(
        path,
        StoreOptions {
            sync_on_commit: false,
        },
    )
    .unwrap();
    let (a, b, c) = (
        store.allocate_oid(),
        store.allocate_oid(),
        store.allocate_oid(),
    );
    let mut model = Model::default();
    let mut settled = vec![(0, model.clone())];
    let mut settle = |store: &Store, model: &Model| {
        settled.push((store.committed_log_len(), model.clone()));
    };

    // A plain transaction.
    store
        .with_txn(|t| {
            t.put(a, b"a1".to_vec());
            t.kv_put(KS, b"k1".to_vec(), b"v1".to_vec());
            Ok(())
        })
        .unwrap();
    model.records.insert(a.raw(), b"a1".to_vec());
    model.kv.insert(b"k1".to_vec(), b"v1".to_vec());
    settle(&store, &model);

    // A committed unit of two transactions.
    store.begin_unit_scope();
    store
        .with_txn(|t| {
            t.put(b, b"b1".to_vec());
            Ok(())
        })
        .unwrap();
    store
        .with_txn(|t| {
            t.put(a, b"a2".to_vec());
            t.kv_put(KS, b"k2".to_vec(), b"v2".to_vec());
            Ok(())
        })
        .unwrap();
    store.end_unit_scope(true).unwrap();
    model.records.insert(b.raw(), b"b1".to_vec());
    model.records.insert(a.raw(), b"a2".to_vec());
    model.kv.insert(b"k2".to_vec(), b"v2".to_vec());
    settle(&store, &model);

    // A plain delete.
    store
        .with_txn(|t| {
            t.delete(b);
            Ok(())
        })
        .unwrap();
    model.records.remove(&b.raw());
    settle(&store, &model);

    // An aborted unit, rolled back by inverse transactions: the image is
    // unchanged whether or not recovery sees its seal.
    store.begin_unit_scope();
    store
        .with_txn(|t| {
            t.put(c, b"c1".to_vec());
            t.delete(a);
            Ok(())
        })
        .unwrap();
    store
        .with_txn(|t| {
            t.delete(c);
            t.put(a, b"a2".to_vec());
            Ok(())
        })
        .unwrap();
    store.end_unit_scope(false).unwrap();

    // A committed unit that deletes an index entry.
    store.begin_unit_scope();
    store
        .with_txn(|t| {
            t.put(c, b"c2".to_vec());
            t.kv_delete(KS, b"k1".to_vec());
            Ok(())
        })
        .unwrap();
    store.end_unit_scope(true).unwrap();
    model.records.insert(c.raw(), b"c2".to_vec());
    model.kv.remove(b"k1".as_slice());
    settle(&store, &model);

    // A trailing plain transaction.
    store
        .with_txn(|t| {
            t.put(a, b"a3".to_vec());
            Ok(())
        })
        .unwrap();
    model.records.insert(a.raw(), b"a3".to_vec());
    settle(&store, &model);

    assert_eq!(image_of(&store, &[a, b, c]), model);
    drop(store);
    let bytes = std::fs::read(path).unwrap();
    assert_eq!(settled.last().unwrap().0, bytes.len() as u64);
    Written {
        bytes,
        oids: vec![a, b, c],
        settled,
    }
}

/// Frame boundaries of an intact log, from 0 to its length.
fn boundaries(bytes: &[u8]) -> Vec<u64> {
    let mut at = 0usize;
    let mut out = vec![0];
    while at < bytes.len() {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        at += 8 + len;
        out.push(at as u64);
    }
    assert_eq!(at, bytes.len());
    out
}

/// Reopen `damaged`, whose first `valid` bytes are the intact log's valid
/// prefix, and check the image and the file left behind.
fn check_reopen(path: &Path, written: &Written, valid: u64, case: &str) {
    let frames_in_prefix = boundaries(&written.bytes[..valid as usize]).len() - 1;
    let expected = &written
        .settled
        .iter()
        .rev()
        .find(|(len, _)| *len <= valid)
        .unwrap()
        .1;
    let store = Store::open(path).unwrap();
    assert_eq!(&image_of(&store, &written.oids), expected, "{case}: image");
    let file_len = std::fs::metadata(path).unwrap().len();
    assert_eq!(store.committed_log_len(), file_len, "{case}: log length");
    drop(store);

    let on_disk = std::fs::read(path).unwrap();
    assert_eq!(
        &on_disk[..valid as usize],
        &written.bytes[..valid as usize],
        "{case}: valid prefix kept"
    );
    let mut reader = FrameReader::open(path).unwrap();
    let mut count = 0;
    let mut last = None;
    while let Some(record) = reader.next_record().unwrap() {
        count += 1;
        last = Some(record);
    }
    assert_eq!(reader.valid_len(), file_len, "{case}: no torn bytes left");
    if file_len > valid {
        // The cut fell inside a unit: recovery sealed it aborted.
        assert_eq!(count, frames_in_prefix + 1, "{case}: one seal appended");
        assert!(
            matches!(
                last,
                Some(LogRecord::UnitEnd {
                    committed: false,
                    ..
                })
            ),
            "{case}: appended frame is an abort seal, got {last:?}"
        );
    } else {
        assert_eq!(count, frames_in_prefix, "{case}: frames kept");
    }
}

#[test]
fn reopen_after_truncation_at_every_offset() {
    let intact = temp_path("truncate-src");
    let written = write_log(&intact);
    let bounds = boundaries(&written.bytes);
    let path = temp_path("truncate");
    for cut in 0..=written.bytes.len() {
        std::fs::write(&path, &written.bytes[..cut]).unwrap();
        let valid = *bounds.iter().rev().find(|&&b| b <= cut as u64).unwrap();
        check_reopen(&path, &written, valid, &format!("cut at {cut}"));
    }
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&intact);
}

#[test]
fn reopen_after_one_flipped_byte_at_every_offset() {
    let intact = temp_path("flip-src");
    let written = write_log(&intact);
    let bounds = boundaries(&written.bytes);
    let path = temp_path("flip");
    for at in 0..written.bytes.len() {
        let mut damaged = written.bytes.clone();
        damaged[at] ^= 0xFF;
        std::fs::write(&path, &damaged).unwrap();
        // The frame holding the flipped byte, and everything after it, is
        // lost; the frames before it are the valid prefix.
        let valid = *bounds.iter().rev().find(|&&b| b <= at as u64).unwrap();
        check_reopen(&path, &written, valid, &format!("byte {at} flipped"));
    }
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&intact);
}
