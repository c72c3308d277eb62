//! Property tests for the storage layer: codec round-trips over arbitrary
//! log records, log scan/append as inverse operations, and the kv namespace
//! against a model map.

use prometheus_storage::codec;
use prometheus_storage::log::{FrameReader, LogRecord, LogWriter};
use prometheus_storage::Oid;
use proptest::prelude::*;
use std::path::Path;

/// Every record of the log's valid prefix, read through the streaming
/// recovery reader.
fn read_all(path: &Path) -> Vec<LogRecord> {
    let mut reader = FrameReader::open(path).unwrap();
    let mut records = Vec::new();
    while let Some(record) = reader.next_record().unwrap() {
        records.push(record);
    }
    records
}

fn arb_record() -> impl Strategy<Value = LogRecord> {
    let oid = (1u64..1_000_000).prop_map(Oid::from_raw);
    let bytes = prop::collection::vec(any::<u8>(), 0..64);
    prop_oneof![
        (1u64..1000).prop_map(|txn| LogRecord::Begin { txn }),
        (1u64..1000, 1u64..1_000_000)
            .prop_map(|(txn, next_oid)| LogRecord::Commit { txn, next_oid }),
        (1u64..1000, oid.clone(), bytes.clone()).prop_map(|(txn, oid, bytes)| LogRecord::Put {
            txn,
            oid,
            bytes
        }),
        (1u64..1000, oid).prop_map(|(txn, oid)| LogRecord::Delete { txn, oid }),
        (1u64..1000, any::<u8>(), bytes.clone(), bytes.clone()).prop_map(
            |(txn, keyspace, key, value)| LogRecord::KvPut {
                txn,
                keyspace,
                key,
                value
            }
        ),
        (1u64..1000, any::<u8>(), bytes).prop_map(|(txn, keyspace, key)| LogRecord::KvDelete {
            txn,
            keyspace,
            key
        }),
    ]
}

proptest! {
    #[test]
    fn log_records_round_trip_through_codec(record in arb_record()) {
        let bytes = codec::to_bytes(&record).unwrap();
        let back: LogRecord = codec::from_bytes(&bytes).unwrap();
        prop_assert_eq!(back, record);
    }

    #[test]
    fn scan_recovers_exactly_what_was_appended(
        records in prop::collection::vec(arb_record(), 0..30)
    ) {
        let path = std::env::temp_dir().join(format!(
            "prop-log-{}-{:?}.log",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);
        let mut writer = LogWriter::open(&path, 0).unwrap();
        for r in &records {
            writer.append(r).unwrap();
        }
        writer.sync().unwrap();
        drop(writer);
        prop_assert_eq!(&read_all(&path), &records);
        // A torn byte after the valid prefix never destroys earlier frames.
        std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .and_then(|mut f| std::io::Write::write_all(&mut f, &[0xAB]))
            .unwrap();
        prop_assert_eq!(read_all(&path).len(), records.len());
        let _ = std::fs::remove_file(path);
    }

    /// Arbitrary put/delete sequences leave the store's kv namespace equal
    /// to a model BTreeMap.
    #[test]
    fn kv_namespace_matches_model(
        ops in prop::collection::vec(
            (any::<bool>(), prop::collection::vec(any::<u8>(), 1..6), prop::collection::vec(any::<u8>(), 0..6)),
            0..40
        )
    ) {
        use prometheus_storage::{Keyspace, Store, StoreOptions};
        let path = std::env::temp_dir().join(format!(
            "prop-kv-{}-{:?}.log",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);
        let store = Store::open_with(&path, StoreOptions { sync_on_commit: false }).unwrap();
        let ks = Keyspace(1);
        let mut model = std::collections::BTreeMap::new();
        for (is_put, key, value) in &ops {
            store.with_txn(|t| {
                if *is_put {
                    t.kv_put(ks, key.clone(), value.clone());
                } else {
                    t.kv_delete(ks, key.clone());
                }
                Ok(())
            }).unwrap();
            if *is_put {
                model.insert(key.clone(), value.clone());
            } else {
                model.remove(key);
            }
        }
        let scanned: std::collections::BTreeMap<Vec<u8>, Vec<u8>> = store
            .kv_scan_prefix(ks, &[])
            .into_iter()
            .map(|(k, v)| (k.to_vec(), v.to_vec()))
            .collect();
        prop_assert_eq!(scanned, model);
        let _ = std::fs::remove_file(path);
    }
}
