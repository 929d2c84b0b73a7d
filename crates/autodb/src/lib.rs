//! # autodb — a log-structured key-value store for learned configurations
//!
//! The paper implements AutoDB on LevelDB, keyed by workload-cluster id with
//! JSON values holding SSD configurations and their performance grades
//! (§3.5). This crate provides the same contract as a small self-contained
//! store: an append-only log with an in-memory index, tombstone deletes,
//! crash-safe reload (a torn last line is dropped, see [`Store::open`]), and
//! log compaction.
//!
//! # Examples
//!
//! ```
//! use autodb::Store;
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let dir = std::env::temp_dir().join(format!("autodb-doc-{}", std::process::id()));
//! std::fs::create_dir_all(&dir)?;
//! let db = Store::open(dir.join("demo.db"))?;
//! db.put("cluster:0", &serde_json::json!({"grade": 1.25}))?;
//! let v = db.get("cluster:0")?.expect("present");
//! assert_eq!(v["grade"], 1.25);
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

use parking_lot::Mutex;
use serde::de::DeserializeOwned;
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// Error type for store operations.
#[derive(Debug)]
#[non_exhaustive]
pub enum DbError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// A log record could not be decoded (corrupt or truncated log).
    Corrupt {
        /// 1-based line number in the log file.
        line: usize,
        /// Decoder message.
        message: String,
    },
    /// Value (de)serialization failed.
    Serde(serde_json::Error),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Io(e) => write!(f, "autodb I/O error: {e}"),
            DbError::Corrupt { line, message } => {
                write!(f, "autodb log corrupt at line {line}: {message}")
            }
            DbError::Serde(e) => write!(f, "autodb serialization error: {e}"),
        }
    }
}

impl Error for DbError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DbError::Io(e) => Some(e),
            DbError::Serde(e) => Some(e),
            DbError::Corrupt { .. } => None,
        }
    }
}

impl From<std::io::Error> for DbError {
    fn from(e: std::io::Error) -> Self {
        DbError::Io(e)
    }
}

impl From<serde_json::Error> for DbError {
    fn from(e: serde_json::Error) -> Self {
        DbError::Serde(e)
    }
}

/// Result alias for store operations.
pub type Result<T> = std::result::Result<T, DbError>;

#[derive(Debug, Serialize, Deserialize)]
struct LogRecord {
    key: String,
    #[serde(skip_serializing_if = "Option::is_none")]
    value: Option<Value>,
    #[serde(default)]
    tombstone: bool,
}

#[derive(Debug)]
struct Inner {
    index: BTreeMap<String, Value>,
    writer: Option<BufWriter<File>>,
    log_records: usize,
    /// Owed by the first append: the length of the log's whole records,
    /// and whether the last of them still needs its newline.
    repair: Option<(u64, bool)>,
}

/// A persistent (or in-memory) key-value store with JSON values.
///
/// All operations take `&self`; the store is internally synchronized and is
/// `Send + Sync`.
#[derive(Debug)]
pub struct Store {
    inner: Mutex<Inner>,
    path: Option<PathBuf>,
}

impl Store {
    /// Opens (creating if absent) a store backed by the log file at `path`,
    /// replaying any existing log into memory.
    ///
    /// A process killed mid-append leaves a torn last line: a final line
    /// with no trailing newline that does not decode is dropped, and the
    /// first append cuts the file back to the last whole record so it
    /// cannot join onto the fragment (a final record that decodes but lost
    /// only its newline is kept, and gets the newline back). Opening alone
    /// never writes, so reading a store another process is appending to
    /// is safe.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Io`] on filesystem failures and
    /// [`DbError::Corrupt`] if any other line cannot be decoded.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut index = BTreeMap::new();
        let mut log_records = 0;
        let bytes = match std::fs::read(&path) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            read => read?,
        };
        let mut whole = 0;
        for (i, line) in bytes.split_inclusive(|&b| b == b'\n').enumerate() {
            let decoded = std::str::from_utf8(line)
                .map_err(|e| e.to_string())
                .and_then(|text| match text.trim() {
                    "" => Ok(None),
                    text => serde_json::from_str::<LogRecord>(text)
                        .map(Some)
                        .map_err(|e| e.to_string()),
                });
            let rec = match decoded {
                Ok(rec) => rec,
                Err(_) if !line.ends_with(b"\n") => break,
                Err(message) => {
                    return Err(DbError::Corrupt {
                        line: i + 1,
                        message,
                    })
                }
            };
            whole += line.len();
            let Some(rec) = rec else { continue };
            log_records += 1;
            if rec.tombstone {
                index.remove(&rec.key);
            } else if let Some(v) = rec.value {
                index.insert(rec.key, v);
            }
        }
        let repair = if whole < bytes.len() {
            Some((whole as u64, false))
        } else {
            (!bytes.is_empty() && !bytes.ends_with(b"\n")).then_some((whole as u64, true))
        };
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(Store {
            inner: Mutex::new(Inner {
                index,
                writer: Some(BufWriter::new(file)),
                log_records,
                repair,
            }),
            path: Some(path),
        })
    }

    /// Creates a purely in-memory store (no persistence).
    pub fn in_memory() -> Self {
        Store {
            inner: Mutex::new(Inner {
                index: BTreeMap::new(),
                writer: None,
                log_records: 0,
                repair: None,
            }),
            path: None,
        }
    }

    /// The backing file path, if persistent.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Stores `value` under `key`, overwriting any previous value.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Io`] if appending to the log fails.
    pub fn put(&self, key: &str, value: &Value) -> Result<()> {
        let mut inner = self.inner.lock();
        Self::append(
            &mut inner,
            &LogRecord {
                key: key.to_string(),
                value: Some(value.clone()),
                tombstone: false,
            },
        )?;
        inner.index.insert(key.to_string(), value.clone());
        Ok(())
    }

    /// Serializes any `Serialize` record and stores it under `key`.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Serde`] if serialization fails, or [`DbError::Io`]
    /// on log-append failure.
    pub fn put_record<T: Serialize>(&self, key: &str, record: &T) -> Result<()> {
        let value = serde_json::to_value(record)?;
        self.put(key, &value)
    }

    /// Fetches the value stored under `key`.
    ///
    /// # Errors
    ///
    /// This in-memory lookup is infallible today; the `Result` reserves room
    /// for tiered storage.
    pub fn get(&self, key: &str) -> Result<Option<Value>> {
        Ok(self.inner.lock().index.get(key).cloned())
    }

    /// Fetches and deserializes the record stored under `key`.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Serde`] if the stored JSON does not match `T`.
    pub fn get_record<T: DeserializeOwned>(&self, key: &str) -> Result<Option<T>> {
        match self.get(key)? {
            Some(v) => Ok(Some(serde_json::from_value(v)?)),
            None => Ok(None),
        }
    }

    /// Deletes `key`; returns `true` if it existed.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Io`] if appending the tombstone fails.
    pub fn delete(&self, key: &str) -> Result<bool> {
        let mut inner = self.inner.lock();
        let existed = inner.index.remove(key).is_some();
        if existed {
            Self::append(
                &mut inner,
                &LogRecord {
                    key: key.to_string(),
                    value: None,
                    tombstone: true,
                },
            )?;
        }
        Ok(existed)
    }

    /// All live keys in sorted order.
    pub fn keys(&self) -> Vec<String> {
        self.inner.lock().index.keys().cloned().collect()
    }

    /// All live keys beginning with `prefix`, sorted ascending. Useful for
    /// enumerating a key family (e.g. every `cluster:` record) without
    /// materializing the whole key set.
    pub fn keys_with_prefix(&self, prefix: &str) -> Vec<String> {
        self.inner
            .lock()
            .index
            .range(prefix.to_string()..)
            .map(|(k, _)| k)
            .take_while(|k| k.starts_with(prefix))
            .cloned()
            .collect()
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.inner.lock().index.len()
    }

    /// `true` if the store holds no live keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of records in the on-disk log (including superseded ones).
    pub fn log_records(&self) -> usize {
        self.inner.lock().log_records
    }

    /// Rewrites the log so it contains exactly the live records.
    ///
    /// No-op for in-memory stores.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Io`] if rewriting fails; the original log is
    /// replaced atomically via a rename.
    pub fn compact(&self) -> Result<()> {
        let mut inner = self.inner.lock();
        let Some(path) = &self.path else {
            return Ok(());
        };
        let tmp = path.with_extension("compact");
        {
            let mut w = BufWriter::new(File::create(&tmp)?);
            for (key, value) in &inner.index {
                let rec = LogRecord {
                    key: key.clone(),
                    value: Some(value.clone()),
                    tombstone: false,
                };
                serde_json::to_writer(&mut w, &rec)?;
                w.write_all(b"\n")?;
            }
            w.flush()?;
        }
        // Swap in the compacted log.
        inner.writer = None;
        std::fs::rename(&tmp, path)?;
        let file = OpenOptions::new().append(true).open(path)?;
        inner.writer = Some(BufWriter::new(file));
        inner.log_records = inner.index.len();
        inner.repair = None;
        Ok(())
    }

    /// Flushes buffered log writes to the OS.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Io`] on flush failure.
    pub fn flush(&self) -> Result<()> {
        if let Some(w) = self.inner.lock().writer.as_mut() {
            w.flush()?;
        }
        Ok(())
    }

    fn append(inner: &mut Inner, rec: &LogRecord) -> Result<()> {
        if let Some(w) = inner.writer.as_mut() {
            if let Some((whole, newline)) = inner.repair {
                w.get_ref().set_len(whole)?;
                if newline {
                    w.write_all(b"\n")?;
                }
                inner.repair = None;
            }
            serde_json::to_writer(&mut *w, rec)?;
            w.write_all(b"\n")?;
            w.flush()?;
        }
        inner.log_records += 1;
        Ok(())
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        // Best-effort final flush; errors are ignored per C-DTOR-FAIL.
        if let Some(w) = self.inner.lock().writer.as_mut() {
            let _ = w.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("autodb-test-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("store.db")
    }

    #[test]
    fn put_get_roundtrip() {
        let db = Store::in_memory();
        db.put("a", &json!({"x": 1})).unwrap();
        assert_eq!(db.get("a").unwrap().unwrap()["x"], 1);
        assert_eq!(db.get("missing").unwrap(), None);
        assert_eq!(db.len(), 1);
        assert!(!db.is_empty());
    }

    #[test]
    fn overwrite_keeps_latest() {
        let db = Store::in_memory();
        db.put("k", &json!(1)).unwrap();
        db.put("k", &json!(2)).unwrap();
        assert_eq!(db.get("k").unwrap().unwrap(), json!(2));
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn delete_and_tombstone() {
        let db = Store::in_memory();
        db.put("k", &json!(1)).unwrap();
        assert!(db.delete("k").unwrap());
        assert!(!db.delete("k").unwrap());
        assert_eq!(db.get("k").unwrap(), None);
    }

    #[test]
    fn persistence_across_reopen() {
        let path = temp_path("reopen");
        std::fs::remove_file(&path).ok();
        {
            let db = Store::open(&path).unwrap();
            db.put("cluster:1", &json!({"grade": 0.5})).unwrap();
            db.put("cluster:2", &json!({"grade": 0.7})).unwrap();
            db.delete("cluster:1").unwrap();
        }
        let db = Store::open(&path).unwrap();
        assert_eq!(db.len(), 1);
        assert_eq!(db.get("cluster:2").unwrap().unwrap()["grade"], 0.7);
        assert_eq!(db.get("cluster:1").unwrap(), None);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compaction_shrinks_log() {
        let path = temp_path("compact");
        std::fs::remove_file(&path).ok();
        let db = Store::open(&path).unwrap();
        for i in 0..50 {
            db.put("hot", &json!(i)).unwrap();
        }
        assert_eq!(db.log_records(), 50);
        db.compact().unwrap();
        assert_eq!(db.log_records(), 1);
        assert_eq!(db.get("hot").unwrap().unwrap(), json!(49));
        // Still usable after compaction.
        db.put("other", &json!("v")).unwrap();
        drop(db);
        let db = Store::open(&path).unwrap();
        assert_eq!(db.len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn typed_records() {
        #[derive(Debug, PartialEq, Serialize, Deserialize)]
        struct Rec {
            name: String,
            grade: f64,
        }
        let db = Store::in_memory();
        let rec = Rec {
            name: "db".into(),
            grade: 1.45,
        };
        db.put_record("r", &rec).unwrap();
        let got: Rec = db.get_record("r").unwrap().unwrap();
        assert_eq!(got, rec);
        let missing: Option<Rec> = db.get_record("absent").unwrap();
        assert!(missing.is_none());
        // Type mismatch surfaces as a Serde error.
        db.put("bad", &json!("not a rec")).unwrap();
        assert!(db.get_record::<Rec>("bad").is_err());
    }

    #[test]
    fn corrupt_log_is_reported() {
        let path = temp_path("corrupt");
        std::fs::write(&path, "{not json}\n").unwrap();
        match Store::open(&path) {
            Err(DbError::Corrupt { line, .. }) => assert_eq!(line, 1),
            other => panic!("expected corrupt error, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    /// A log cut at any byte reopens to the records that were whole at the
    /// cut without being written to, and appending afterwards never
    /// corrupts the file.
    #[test]
    fn truncated_log_reopens_to_a_clean_prefix() {
        let path = temp_path("torn");
        std::fs::remove_file(&path).ok();
        {
            let db = Store::open(&path).unwrap();
            db.put("category:Database", &json!({"grade": 0.25}))
                .unwrap();
            db.put("memo:1:ab", &json!({"latency_ns": 12.5, "note": "naïve"}))
                .unwrap();
            db.delete("category:Database").unwrap();
            db.put("run:Database:000001", &json!({"seed": 7})).unwrap();
        }
        let full = std::fs::read(&path).unwrap();
        // Each record's key set once its closing brace is on disk.
        let mut expected: Vec<(usize, Vec<String>)> = vec![(0, Vec::new())];
        let mut keys: Vec<String> = Vec::new();
        let mut end = 0;
        for line in full.split_inclusive(|&b| b == b'\n') {
            let rec: LogRecord = serde_json::from_str(std::str::from_utf8(line).unwrap()).unwrap();
            if rec.tombstone {
                keys.retain(|k| *k != rec.key);
            } else {
                keys.push(rec.key);
                keys.sort();
            }
            end += line.len();
            expected.push((end - 1, keys.clone()));
        }
        for cut in 0..=full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let want = &expected.iter().rev().find(|(at, _)| *at <= cut).unwrap().1;
            let db = Store::open(&path).unwrap_or_else(|e| panic!("cut {cut}: {e}"));
            assert_eq!(db.keys(), *want, "cut {cut}");
            assert_eq!(std::fs::read(&path).unwrap(), full[..cut], "opening wrote");
            db.put("probe", &json!(cut as f64)).unwrap();
            drop(db);
            let db = Store::open(&path).unwrap_or_else(|e| panic!("cut {cut} + append: {e}"));
            assert_eq!(db.len(), want.len() + 1, "cut {cut} + append");
            assert_eq!(db.get("probe").unwrap(), Some(json!(cut as f64)));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_middle_line_is_still_reported() {
        let path = temp_path("flipped");
        std::fs::remove_file(&path).ok();
        {
            let db = Store::open(&path).unwrap();
            for i in 0..3 {
                db.put(&format!("k{i}"), &json!(i)).unwrap();
            }
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let second = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        bytes[second] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        match Store::open(&path) {
            Err(DbError::Corrupt { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected corrupt error, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn keys_sorted() {
        let db = Store::in_memory();
        db.put("b", &json!(1)).unwrap();
        db.put("a", &json!(2)).unwrap();
        assert_eq!(db.keys(), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn store_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Store>();
    }
}
