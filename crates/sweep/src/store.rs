//! JSONL result store with content-hash run caching.
//!
//! Every sweep cell is persisted as one JSON object per line, keyed by an
//! FNV-1a content hash of (scenario, Canon configuration fingerprint,
//! code-version salt). Re-running a sweep against an existing store skips
//! every cell whose key is already present — change a shape, a band, the
//! configuration, or bump [`CODE_SALT`], and exactly the affected cells
//! recompute.
//!
//! Serialization is hand-rolled (the build environment has no registry
//! access, and the schema is a flat record): [`StoredRecord::to_line`]
//! writes a canonical line, [`StoredRecord::parse`] reads it back. Cached
//! records re-emit their original line verbatim, so a warm re-run produces
//! a byte-identical file.
//!
//! Records carry their [`CODE_SALT`] and schema version explicitly, so
//! [`ResultStore::compact`] can garbage-collect cells stranded by a salt
//! bump or a schema migration (they would otherwise sit in the file forever
//! — their content keys can never be probed again).

use crate::scenario::Scenario;
use canon_core::stats::{StallBreakdown, StallCause};
use canon_core::CanonConfig;
use std::collections::HashMap;
use std::io::{self, Seek as _, Write as _};
use std::path::{Path, PathBuf};

/// Bump when a simulator or energy-model change invalidates stored results.
/// `v2`: the unified `Workload` record schema with geometry-parameterized
/// (iso-MAC) baselines. `v3`: SDDMM auto-pads K to the next `cols·lanes`
/// multiple — cells that previously cached mapping-error records now
/// simulate (results of previously-succeeding cells are unchanged, but the
/// error records must not be served from stale stores).
pub const CODE_SALT: &str = "canon-sweep-v3";

/// Stored-record schema version (`2` added the explicit `salt` field and
/// the loop-workload descriptors).
pub const STORE_SCHEMA: u32 = 2;

/// 64-bit FNV-1a.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Stable fingerprint of the Canon configuration fields that affect results.
/// The watchdog budget is included because a raised budget can turn a
/// deadlock-aborted cell into a completed one — such cells must miss. The
/// harness budgets and injected fault join the fingerprint only when set,
/// for the same reason (a raised ceiling can turn a timeout record into a
/// completed one, and a faulted cell must never share a key with its
/// healthy counterpart); unset they contribute nothing, so every
/// pre-existing store keeps hitting byte-for-byte.
pub fn cfg_fingerprint(cfg: &CanonConfig) -> String {
    let mut fp = format!(
        "dmem={};spad={};pipe={};fifo={};msg={}x{};bw={};wd={}+{}",
        cfg.dmem_words,
        cfg.spad_entries,
        cfg.pipe_depth,
        cfg.link_fifo_depth,
        cfg.orch_msg_latency,
        cfg.orch_msg_capacity,
        cfg.offchip_bytes_per_cycle,
        cfg.watchdog_factor,
        cfg.watchdog_slack,
    );
    if let Some(m) = cfg.max_cycles {
        fp.push_str(&format!(";maxcyc={m}"));
    }
    if let Some(ns) = cfg.wall_budget_ns {
        fp.push_str(&format!(";wall={ns}ns"));
    }
    if let Some(f) = &cfg.fault {
        fp.push_str(&format!(";fault={}", f.descriptor()));
    }
    fp
}

/// The cache key of one cell: scenario canonical form + configuration
/// fingerprint + code salt, FNV-1a hashed, as 16 hex digits.
pub fn cell_key(scenario: &Scenario, fingerprint: &str) -> String {
    let material = format!("{CODE_SALT};{fingerprint};{}", scenario.canonical());
    format!("{:016x}", fnv1a64(material.as_bytes()))
}

/// A quarantined cell failure — the structured record the sweep engine
/// stores when a cell dies instead of producing metrics. The kind, not the
/// free-form reason, drives retry policy and reporting:
///
/// | kind | source | retried? |
/// |---|---|---|
/// | `panic` | backend panicked (caught by `catch_unwind`) | no |
/// | `deadlock` | the fabric watchdog fired (nothing can progress) | no |
/// | `timeout` | a wall-clock/cycle budget expired (runaway cell) | no |
/// | `transient` | a retryable fault exhausted its retry budget | yes |
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellFailure {
    /// The backend panicked; `message` is the downcast panic payload.
    Panic {
        /// Panic payload (or a placeholder for non-string payloads).
        message: String,
    },
    /// The deadlock watchdog fired ([`canon_core::SimError::Deadlock`]).
    Deadlock {
        /// What the fabric was waiting on.
        detail: String,
    },
    /// A harness budget expired ([`canon_core::SimError::Timeout`]).
    Timeout {
        /// Which budget, from the simulator error.
        detail: String,
    },
    /// A transient (retryable) failure survived every retry attempt.
    Transient {
        /// Description of the final failed attempt.
        detail: String,
    },
}

impl CellFailure {
    /// Short machine-readable kind — also the record's `status` value.
    pub fn kind(&self) -> &'static str {
        match self {
            CellFailure::Panic { .. } => "panic",
            CellFailure::Deadlock { .. } => "deadlock",
            CellFailure::Timeout { .. } => "timeout",
            CellFailure::Transient { .. } => "transient",
        }
    }

    /// Human-readable detail (panic payload, watchdog wait list, …).
    pub fn reason(&self) -> &str {
        match self {
            CellFailure::Panic { message } => message,
            CellFailure::Deadlock { detail }
            | CellFailure::Timeout { detail }
            | CellFailure::Transient { detail } => detail,
        }
    }

    /// Whether the failure class is worth retrying. Panics, deadlocks, and
    /// budget timeouts are deterministic — retrying re-simulates the same
    /// outcome — so only transient failures qualify.
    pub fn is_transient(&self) -> bool {
        matches!(self, CellFailure::Transient { .. })
    }
}

/// Execution status of a stored cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordStatus {
    /// The backend produced metrics.
    Ok,
    /// The architecture cannot run the workload (the figures' `X`).
    Unsupported,
    /// The simulator rejected the cell (mapping violation, protocol error).
    Error(String),
    /// The cell was quarantined by the fault-tolerance layer; the record
    /// caches the failure so warm re-runs do not re-simulate it. `cycles`
    /// carries the abort cycle (partial progress) for deadlock/timeout.
    Failed(CellFailure),
}

impl RecordStatus {
    fn as_str(&self) -> &str {
        match self {
            RecordStatus::Ok => "ok",
            RecordStatus::Unsupported => "unsupported",
            RecordStatus::Error(_) => "error",
            RecordStatus::Failed(f) => f.kind(),
        }
    }
}

/// One persisted sweep cell.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredRecord {
    /// Content-hash cache key (16 hex digits).
    pub key: String,
    /// The [`CODE_SALT`] the record was computed under — lets
    /// [`ResultStore::compact`] identify stale generations.
    pub salt: String,
    /// Workload family name.
    pub workload: String,
    /// Architecture label.
    pub arch: String,
    /// Sparsity band label, if the workload is band-sensitive.
    pub band: Option<String>,
    /// Canon fabric rows.
    pub rows: usize,
    /// Canon fabric columns.
    pub cols: usize,
    /// Scale divisor.
    pub scale: usize,
    /// Operand seed.
    pub seed: u64,
    /// Concrete op descriptor.
    pub op: String,
    /// Execution status.
    pub status: RecordStatus,
    /// Total cycles (0 unless `status == Ok`).
    pub cycles: u64,
    /// Total energy in pJ (0 unless `status == Ok`).
    pub energy_pj: f64,
    /// Useful scalar MACs.
    pub useful_macs: u64,
    /// Effective compute utilization.
    pub utilization: f64,
    /// Per-cause stall attribution, when the backend tracks it (Canon
    /// tensor cells). Serialized as flat `stall_<cause>` fields; records
    /// written before the field existed parse as `None`, so adding it
    /// needed no salt bump.
    pub stalls: Option<StallBreakdown>,
}

/// Appends `s` to `out` with JSON string escaping (the inverse of what
/// [`parse_flat_object`] unescapes). Public alongside the parser so other
/// line-JSON surfaces in the workspace (the serve protocol) share one
/// dialect instead of hand-rolling a second.
pub fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

impl StoredRecord {
    /// Serializes to one canonical JSONL line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut s = String::with_capacity(256);
        let field_str = |s: &mut String, name: &str, v: &str| {
            s.push('"');
            s.push_str(name);
            s.push_str("\":\"");
            escape_json(v, s);
            s.push('"');
        };
        s.push('{');
        field_str(&mut s, "key", &self.key);
        s.push_str(&format!(",\"schema\":{STORE_SCHEMA},"));
        field_str(&mut s, "salt", &self.salt);
        s.push(',');
        field_str(&mut s, "workload", &self.workload);
        s.push(',');
        field_str(&mut s, "arch", &self.arch);
        s.push(',');
        match &self.band {
            Some(b) => field_str(&mut s, "band", b),
            None => s.push_str("\"band\":null"),
        }
        s.push_str(&format!(
            ",\"rows\":{},\"cols\":{},\"scale\":{},\"seed\":{},",
            self.rows, self.cols, self.scale, self.seed
        ));
        field_str(&mut s, "op", &self.op);
        s.push(',');
        field_str(&mut s, "status", self.status.as_str());
        match &self.status {
            RecordStatus::Error(reason) => {
                s.push(',');
                field_str(&mut s, "reason", reason);
            }
            RecordStatus::Failed(failure) => {
                s.push(',');
                field_str(&mut s, "reason", failure.reason());
            }
            _ => {}
        }
        s.push_str(&format!(
            ",\"cycles\":{},\"energy_pj\":{},\"useful_macs\":{},\"utilization\":{}",
            self.cycles, self.energy_pj, self.useful_macs, self.utilization
        ));
        if let Some(b) = &self.stalls {
            for cause in StallCause::ALL {
                s.push_str(&format!(",\"stall_{}\":{}", cause.name(), b.get(cause)));
            }
        }
        s.push('}');
        s
    }

    /// Label of the workload cell this record belongs to — the same format
    /// grids use ([`crate::scenario::cell_label_for`]), so reports group
    /// records into exactly the grid's cells.
    pub fn cell_label(&self) -> String {
        crate::scenario::cell_label_for(
            &self.workload,
            self.band.as_deref(),
            self.scale,
            (self.rows, self.cols),
        )
    }

    /// Parses one JSONL line; `None` if malformed or wrong schema.
    pub fn parse(line: &str) -> Option<StoredRecord> {
        let fields = parse_flat_object(line)?;
        let get_str = |k: &str| -> Option<String> {
            match fields.get(k)? {
                JsonVal::Str(s) => Some(s.clone()),
                _ => None,
            }
        };
        let get_u64 = |k: &str| -> Option<u64> {
            match fields.get(k)? {
                JsonVal::Num(raw) => raw.parse().ok(),
                _ => None,
            }
        };
        let get_f64 = |k: &str| -> Option<f64> {
            match fields.get(k)? {
                JsonVal::Num(raw) => raw.parse().ok(),
                _ => None,
            }
        };
        if get_u64("schema")? != STORE_SCHEMA as u64 {
            return None;
        }
        let status = match get_str("status")?.as_str() {
            "ok" => RecordStatus::Ok,
            "unsupported" => RecordStatus::Unsupported,
            "error" => RecordStatus::Error(get_str("reason").unwrap_or_default()),
            "panic" => RecordStatus::Failed(CellFailure::Panic {
                message: get_str("reason").unwrap_or_default(),
            }),
            "deadlock" => RecordStatus::Failed(CellFailure::Deadlock {
                detail: get_str("reason").unwrap_or_default(),
            }),
            "timeout" => RecordStatus::Failed(CellFailure::Timeout {
                detail: get_str("reason").unwrap_or_default(),
            }),
            "transient" => RecordStatus::Failed(CellFailure::Transient {
                detail: get_str("reason").unwrap_or_default(),
            }),
            _ => return None,
        };
        Some(StoredRecord {
            key: get_str("key")?,
            salt: get_str("salt")?,
            workload: get_str("workload")?,
            arch: get_str("arch")?,
            band: match fields.get("band")? {
                JsonVal::Str(s) => Some(s.clone()),
                JsonVal::Null => None,
                _ => return None,
            },
            rows: get_u64("rows")? as usize,
            cols: get_u64("cols")? as usize,
            scale: get_u64("scale")? as usize,
            seed: get_u64("seed")?,
            op: get_str("op")?,
            status,
            cycles: get_u64("cycles")?,
            energy_pj: get_f64("energy_pj")?,
            useful_macs: get_u64("useful_macs")?,
            utilization: get_f64("utilization")?,
            stalls: {
                // Present only on records whose backend tracked attribution;
                // one present field implies all five were written together.
                if fields.contains_key("stall_credit") {
                    let mut b = StallBreakdown::default();
                    for cause in StallCause::ALL {
                        b.add(cause, get_u64(&format!("stall_{}", cause.name()))?);
                    }
                    Some(b)
                } else {
                    None
                }
            },
        })
    }
}

/// One value of a flat JSON object (see [`parse_flat_object`]).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonVal {
    /// A string value, unescaped.
    Str(String),
    /// A number, kept as its raw text (callers pick the width to parse at).
    Num(String),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
}

impl JsonVal {
    /// The string value, or `None` for non-strings.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonVal::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value parsed as `u64`, or `None`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonVal::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The numeric value parsed as `usize`, or `None`.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            JsonVal::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The numeric value parsed as `f64`, or `None`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonVal::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The boolean value, or `None` for non-booleans.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonVal::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Parses a flat (non-nested) JSON object into its fields. This is the
/// store's record dialect — also the wire dialect of the `canon-serve`
/// line-JSON protocol, which reuses this parser instead of growing a
/// second one.
pub fn parse_flat_object(line: &str) -> Option<HashMap<String, JsonVal>> {
    let mut chars = line.trim().chars().peekable();
    if chars.next()? != '{' {
        return None;
    }
    let mut fields = HashMap::new();
    loop {
        match chars.peek()? {
            '}' => {
                chars.next();
                break;
            }
            ',' | ' ' => {
                chars.next();
            }
            '"' => {
                let name = parse_string(&mut chars)?;
                if chars.next()? != ':' {
                    return None;
                }
                let val = match chars.peek()? {
                    '"' => JsonVal::Str(parse_string(&mut chars)?),
                    't' => {
                        for expect in "true".chars() {
                            if chars.next()? != expect {
                                return None;
                            }
                        }
                        JsonVal::Bool(true)
                    }
                    'f' => {
                        for expect in "false".chars() {
                            if chars.next()? != expect {
                                return None;
                            }
                        }
                        JsonVal::Bool(false)
                    }
                    'n' => {
                        for expect in "null".chars() {
                            if chars.next()? != expect {
                                return None;
                            }
                        }
                        JsonVal::Null
                    }
                    _ => {
                        let mut raw = String::new();
                        while matches!(
                            chars.peek(),
                            Some(c) if c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E')
                        ) {
                            raw.push(chars.next()?);
                        }
                        if raw.is_empty() {
                            return None;
                        }
                        JsonVal::Num(raw)
                    }
                };
                fields.insert(name, val);
            }
            _ => return None,
        }
    }
    Some(fields)
}

fn parse_string(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Option<String> {
    if chars.next()? != '"' {
        return None;
    }
    let mut out = String::new();
    loop {
        match chars.next()? {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let mut code = 0u32;
                    for _ in 0..4 {
                        code = code * 16 + chars.next()?.to_digit(16)?;
                    }
                    out.push(char::from_u32(code)?);
                }
                _ => return None,
            },
            c => out.push(c),
        }
    }
}

/// A JSONL result store: an on-disk cache of computed cells plus the sink
/// the engine writes complete sweeps to.
///
/// The file doubles as a crash-safe journal: the engine appends each
/// freshly computed record with an fsync'd write the moment it completes,
/// so a SIGKILL mid-sweep loses at most the in-flight cells. [`open`]
/// detects a torn tail (a final partial line from an interrupted write)
/// and resumes from the last intact record; full-file rewrites
/// ([`write_ordered`], [`compact`]) go through an atomic tmp+rename so no
/// crash window ever exposes a half-written store.
///
/// [`open`]: ResultStore::open
/// [`write_ordered`]: ResultStore::write_ordered
/// [`compact`]: ResultStore::compact
#[derive(Debug)]
pub struct ResultStore {
    path: Option<PathBuf>,
    by_key: HashMap<String, StoredRecord>,
    /// Lines of the backing file that failed to parse (truncation, or a
    /// schema older than [`STORE_SCHEMA`]) — still occupying file space
    /// until [`ResultStore::compact`] rewrites it.
    unreadable_lines: usize,
    /// Records successfully loaded at open (the journal's survivors).
    loaded: usize,
    /// Byte length of the intact prefix of the backing file: every line up
    /// to here is newline-terminated and either parsed or was counted
    /// unreadable. Appends land here after truncating any torn tail.
    good_len: u64,
    /// Bytes past `good_len` — a torn final line left by an interrupted
    /// write, dropped (via `set_len`) before the first append.
    torn_tail_bytes: u64,
    /// The final line parsed but lacked a trailing newline (a foreign
    /// writer); the first append must supply the separator.
    pending_newline: bool,
    /// Lazily opened append handle; every append is fsync'd through it.
    appender: Option<std::fs::File>,
}

impl ResultStore {
    /// Opens (and loads, if present) the store at `path`. Malformed or
    /// old-schema lines are skipped so a truncated or stale file degrades
    /// to extra cache misses, not a failed sweep; their count is reported
    /// by [`ResultStore::unreadable_lines`]. A torn final line (partial
    /// write from a crash) is detected separately and truncated away
    /// before the next append; [`ResultStore::recovery`] reports what was
    /// found.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors other than the file not existing.
    pub fn open(path: impl AsRef<Path>) -> io::Result<ResultStore> {
        let path = path.as_ref().to_path_buf();
        let mut by_key = HashMap::new();
        let mut unreadable_lines = 0;
        let mut good_len = 0u64;
        let mut torn_tail_bytes = 0u64;
        let mut pending_newline = false;
        match std::fs::read(&path) {
            Ok(bytes) => {
                let content = String::from_utf8_lossy(&bytes);
                for seg in content.split_inclusive('\n') {
                    let has_newline = seg.ends_with('\n');
                    let line = seg.trim_end_matches(['\n', '\r']);
                    let parsed = if line.trim().is_empty() {
                        None
                    } else {
                        StoredRecord::parse(line)
                    };
                    match parsed {
                        Some(rec) => {
                            by_key.insert(rec.key.clone(), rec);
                            good_len += seg.len() as u64;
                            // A parsed record without its newline: keep the
                            // bytes, but the next append owes a separator.
                            pending_newline = !has_newline;
                        }
                        None if line.trim().is_empty() || has_newline => {
                            if !line.trim().is_empty() {
                                unreadable_lines += 1;
                            }
                            if has_newline {
                                good_len += seg.len() as u64;
                            }
                            // (an all-whitespace unterminated tail is
                            // silently trimmed by the same set_len path)
                        }
                        None => {
                            // Torn tail: a final, unterminated, unparseable
                            // line — the classic interrupted-write residue.
                            torn_tail_bytes = seg.len() as u64;
                        }
                    }
                }
                // Whitespace tail without newline: drop it too.
                if bytes.len() as u64 > good_len + torn_tail_bytes {
                    torn_tail_bytes = bytes.len() as u64 - good_len;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        let loaded = by_key.len();
        Ok(ResultStore {
            path: Some(path),
            by_key,
            unreadable_lines,
            loaded,
            good_len,
            torn_tail_bytes,
            pending_newline,
            appender: None,
        })
    }

    /// A store with no backing file (results are kept in memory only).
    pub fn in_memory() -> ResultStore {
        ResultStore {
            path: None,
            by_key: HashMap::new(),
            unreadable_lines: 0,
            loaded: 0,
            good_len: 0,
            torn_tail_bytes: 0,
            pending_newline: false,
            appender: None,
        }
    }

    /// Lines of the backing file that could not be parsed when the store
    /// was opened (see [`ResultStore::open`]).
    pub fn unreadable_lines(&self) -> usize {
        self.unreadable_lines
    }

    /// What [`ResultStore::open`] found in the backing file — how many
    /// records survived, how many lines were unreadable, and whether a
    /// torn tail from an interrupted write was recovered.
    pub fn recovery(&self) -> RecoveryStats {
        RecoveryStats {
            loaded: self.loaded,
            unreadable_lines: self.unreadable_lines,
            torn_tail_bytes: self.torn_tail_bytes,
        }
    }

    /// The backing file, if any.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Number of cached records.
    pub fn len(&self) -> usize {
        self.by_key.len()
    }

    /// Whether the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.by_key.is_empty()
    }

    /// Cached record for `key`, if present.
    pub fn lookup(&self, key: &str) -> Option<&StoredRecord> {
        self.by_key.get(key)
    }

    /// All cached records, in unspecified order.
    pub fn records(&self) -> impl Iterator<Item = &StoredRecord> {
        self.by_key.values()
    }

    /// Inserts (or replaces) a record in the in-memory cache.
    pub fn insert(&mut self, rec: StoredRecord) {
        self.by_key.insert(rec.key.clone(), rec);
    }

    fn ensure_parent_dir(path: &Path) -> io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        Ok(())
    }

    /// Journals one record: appends its line to the backing file with an
    /// fsync, then inserts it into the in-memory cache, so the record
    /// survives a SIGKILL the moment this returns and a failed append
    /// leaves no cache entry behind (the daemon answers index hits as
    /// `cached`, so indexing an unjournaled record would acknowledge work
    /// a restart loses). The first append truncates any torn tail left by
    /// a previous crash (see [`ResultStore::open`]), keeping the file a
    /// sequence of intact lines at all times.
    ///
    /// # Errors
    ///
    /// Propagates file I/O errors; an in-memory store only caches.
    pub fn append(&mut self, rec: &StoredRecord) -> io::Result<()> {
        let Some(path) = self.path.clone() else {
            self.insert(rec.clone());
            return Ok(());
        };
        if self.appender.is_none() {
            Self::ensure_parent_dir(&path)?;
            let f = std::fs::OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(false)
                .open(&path)?;
            // Crash recovery: drop the torn tail so the append lands right
            // after the last intact line.
            f.set_len(self.good_len)?;
            self.appender = Some(f);
        }
        let mut line = String::with_capacity(280);
        if self.pending_newline {
            line.push('\n');
        }
        line.push_str(&rec.to_line());
        line.push('\n');
        let f = self.appender.as_mut().expect("appender just ensured");
        f.seek(io::SeekFrom::Start(self.good_len))?;
        f.write_all(line.as_bytes())?;
        f.sync_data()?;
        self.pending_newline = false;
        self.good_len += line.len() as u64;
        self.insert(rec.clone());
        Ok(())
    }

    /// Rewrites the backing file with `records` in the given order — the
    /// engine calls this with the full sweep in scenario order, making the
    /// file layout independent of completion order and thread count.
    ///
    /// The rewrite is atomic (write to a temp file in the same directory,
    /// fsync, rename over the store, fsync the directory): a crash at any
    /// point leaves either the previous journal or the complete new file,
    /// never a torn hybrid.
    ///
    /// # Errors
    ///
    /// Propagates file I/O errors; an in-memory store writes nothing.
    pub fn write_ordered(&mut self, records: &[StoredRecord]) -> io::Result<()> {
        let Some(path) = self.path.clone() else {
            return Ok(());
        };
        Self::ensure_parent_dir(&path)?;
        let mut file_name = path
            .file_name()
            .map(|n| n.to_os_string())
            .unwrap_or_default();
        file_name.push(format!(".tmp.{}", std::process::id()));
        let tmp = path.with_file_name(file_name);
        let mut total = 0u64;
        {
            let mut f = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
            for rec in records {
                let line = rec.to_line();
                f.write_all(line.as_bytes())?;
                f.write_all(b"\n")?;
                total += line.len() as u64 + 1;
            }
            f.flush()?;
            f.get_ref().sync_data()?;
        }
        std::fs::rename(&tmp, &path)?;
        // Make the rename itself durable; skipped silently where directory
        // fsync is unsupported.
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                if let Ok(dir) = std::fs::File::open(parent) {
                    let _ = dir.sync_all();
                }
            }
        }
        // The old append handle points at the unlinked inode; reopen lazily.
        self.appender = None;
        self.good_len = total;
        self.torn_tail_bytes = 0;
        self.pending_newline = false;
        self.unreadable_lines = 0;
        Ok(())
    }

    /// Garbage-collects the store: drops every record whose [`CODE_SALT`]
    /// generation is stale (its content key can never be probed again) and
    /// rewrites the backing file deterministically (records sorted by key),
    /// which also sheds malformed and old-schema lines and any recovered
    /// torn tail. The `repro store gc` CLI target calls this.
    ///
    /// # Errors
    ///
    /// Propagates file I/O errors; an in-memory store compacts without
    /// writing.
    pub fn compact(&mut self) -> io::Result<CompactStats> {
        let before = self.by_key.len();
        let dropped_unreadable = self.unreadable_lines;
        let recovered_torn_bytes = self.torn_tail_bytes;
        self.by_key.retain(|_, rec| rec.salt == CODE_SALT);
        let mut records: Vec<StoredRecord> = self.by_key.values().cloned().collect();
        records.sort_by(|a, b| a.key.cmp(&b.key));
        self.write_ordered(&records)?;
        Ok(CompactStats {
            kept: records.len(),
            dropped_stale: before - records.len(),
            dropped_unreadable,
            recovered_torn_bytes,
        })
    }
}

/// What [`ResultStore::open`] recovered from the backing file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Records loaded intact.
    pub loaded: usize,
    /// Newline-terminated lines that failed to parse (malformed or
    /// old-schema) — kept on disk until the next rewrite.
    pub unreadable_lines: usize,
    /// Bytes of torn final line (interrupted write) scheduled for
    /// truncation; `0` when the file ended cleanly.
    pub torn_tail_bytes: u64,
}

impl RecoveryStats {
    /// True when the file carried crash or corruption residue worth
    /// surfacing to the user.
    pub fn has_damage(&self) -> bool {
        self.unreadable_lines > 0 || self.torn_tail_bytes > 0
    }
}

// Raw POSIX `flock(2)` binding: the workspace carries no libc crate (no
// registry access), and one foreign function needs no abstraction. Same
// pattern as the repro binary's `signal(2)` binding.
#[cfg(unix)]
extern "C" {
    fn flock(fd: std::os::raw::c_int, operation: std::os::raw::c_int) -> std::os::raw::c_int;
}

#[cfg(unix)]
const LOCK_EX: std::os::raw::c_int = 2;
#[cfg(unix)]
const LOCK_NB: std::os::raw::c_int = 4;

/// An advisory exclusive lock on a result store, held on a `.lock` sibling
/// of the store file for as long as the guard lives.
///
/// A store is an fsync'd append journal; two writers interleaving appends
/// (a resident `repro serve` daemon plus a concurrent `repro sweep` or
/// `repro store gc`) would corrupt the tail each believes it owns. Every
/// store-writing entry point therefore takes this lock first and **fails
/// fast** with a clear error when another process holds it, instead of
/// discovering the interleave at the next torn-tail recovery.
///
/// The lock is `flock(2)`-based: advisory, per open file description,
/// released automatically by the kernel when the holder exits (including
/// SIGKILL — a crashed daemon never wedges the store). On non-Unix
/// platforms acquisition always succeeds (no-op guard).
#[derive(Debug)]
pub struct StoreLock {
    /// Keeps the locked descriptor open; dropping releases the lock.
    _file: std::fs::File,
    path: PathBuf,
}

impl StoreLock {
    /// The `.lock` sibling path guarding `store_path`.
    pub fn lock_path(store_path: &Path) -> PathBuf {
        let mut os = store_path.as_os_str().to_os_string();
        os.push(".lock");
        PathBuf::from(os)
    }

    /// Acquires the exclusive store lock, without blocking.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::WouldBlock`] with a descriptive message when
    /// another process holds the lock; other I/O errors if the lock file
    /// cannot be created.
    pub fn acquire(store_path: &Path) -> io::Result<StoreLock> {
        let path = StoreLock::lock_path(store_path);
        let file = std::fs::OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(&path)?;
        #[cfg(unix)]
        {
            use std::os::unix::io::AsRawFd as _;
            // SAFETY: fd is a valid open descriptor owned by `file`;
            // flock has no memory-safety obligations beyond that.
            let rc = unsafe { flock(file.as_raw_fd(), LOCK_EX | LOCK_NB) };
            if rc != 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::WouldBlock {
                    return Err(io::Error::new(
                        io::ErrorKind::WouldBlock,
                        format!(
                            "store '{}' is locked by another process (a resident \
                             `repro serve` daemon or a concurrent sweep); stop it \
                             or point --out at a different store",
                            store_path.display()
                        ),
                    ));
                }
                return Err(err);
            }
        }
        Ok(StoreLock { _file: file, path })
    }

    /// The lock file's own path (diagnostics).
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Outcome counters of one [`ResultStore::compact`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactStats {
    /// Records kept (current [`CODE_SALT`] and schema).
    pub kept: usize,
    /// Records dropped for a stale code salt.
    pub dropped_stale: usize,
    /// File lines dropped because they were malformed or of an old schema.
    pub dropped_unreadable: usize,
    /// Bytes of torn tail (crash residue) shed by the rewrite.
    pub recovered_torn_bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioGrid;

    #[test]
    #[cfg(unix)]
    fn store_lock_excludes_second_holder_and_releases_on_drop() {
        let dir = std::env::temp_dir().join(format!("canon-sweep-lock-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let store = dir.join("results.jsonl");
        let first = StoreLock::acquire(&store).expect("first acquire");
        let second = StoreLock::acquire(&store);
        let err = second.expect_err("second holder must fail fast");
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        assert!(
            err.to_string().contains("locked by another process"),
            "error must explain the conflict: {err}"
        );
        drop(first);
        StoreLock::acquire(&store).expect("lock released on drop");
        std::fs::remove_dir_all(&dir).ok();
    }

    fn sample_record(status: RecordStatus) -> StoredRecord {
        StoredRecord {
            key: "00ff00ff00ff00ff".into(),
            salt: CODE_SALT.into(),
            workload: "SpMM".into(),
            arch: "ZeD".into(),
            band: Some("S2".into()),
            rows: 8,
            cols: 8,
            scale: 4,
            seed: 42,
            op: "spmm(m=64,k=64,n=32,sp=0.45)".into(),
            status,
            cycles: 1234,
            energy_pj: 5678.25,
            useful_macs: 1000,
            utilization: 0.4375,
            stalls: None,
        }
    }

    #[test]
    fn roundtrip_with_stall_breakdown() {
        let mut b = StallBreakdown::default();
        b.add(StallCause::Credit, 41);
        b.add(StallCause::OperandWait, 7);
        let rec = StoredRecord {
            stalls: Some(b),
            ..sample_record(RecordStatus::Ok)
        };
        let line = rec.to_line();
        assert!(line.contains("\"stall_credit\":41"));
        assert!(line.contains("\"stall_operand_wait\":7"));
        let back = StoredRecord::parse(&line).expect("parses");
        assert_eq!(back, rec);
        assert_eq!(back.to_line(), line);
    }

    #[test]
    fn records_without_stall_fields_still_parse() {
        // Lines written before the breakdown existed have no stall_* fields;
        // they must keep parsing (as `stalls: None`) with no salt bump.
        let rec = sample_record(RecordStatus::Ok);
        let line = rec.to_line();
        assert!(!line.contains("stall_"));
        let back = StoredRecord::parse(&line).expect("parses");
        assert_eq!(back.stalls, None);
        assert_eq!(back, rec);
    }

    #[test]
    fn roundtrip_ok_record() {
        let rec = sample_record(RecordStatus::Ok);
        let line = rec.to_line();
        let back = StoredRecord::parse(&line).expect("parses");
        assert_eq!(back, rec);
        // Canonical form is stable through a parse/serialize cycle.
        assert_eq!(back.to_line(), line);
    }

    #[test]
    fn roundtrip_error_and_unsupported() {
        for status in [
            RecordStatus::Unsupported,
            RecordStatus::Error("mapping error: K = 20 \"bad\"".into()),
        ] {
            let rec = sample_record(status);
            let back = StoredRecord::parse(&rec.to_line()).expect("parses");
            assert_eq!(back, rec);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(StoredRecord::parse("").is_none());
        assert!(StoredRecord::parse("not json").is_none());
        assert!(StoredRecord::parse("{\"key\":\"x\"}").is_none());
        let truncated = &sample_record(RecordStatus::Ok).to_line()[..40];
        assert!(StoredRecord::parse(truncated).is_none());
    }

    #[test]
    fn keys_differ_across_cells_and_configs() {
        let grid = ScenarioGrid::standard(4);
        let fp = cfg_fingerprint(&CanonConfig::default());
        let mut keys: Vec<String> = grid.scenarios.iter().map(|s| cell_key(s, &fp)).collect();
        let n = keys.len();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), n, "cell keys must be unique");
        let other_fp = cfg_fingerprint(&CanonConfig {
            spad_entries: 64,
            ..CanonConfig::default()
        });
        assert_ne!(
            cell_key(&grid.scenarios[0], &fp),
            cell_key(&grid.scenarios[0], &other_fp)
        );
    }

    #[test]
    fn compact_drops_stale_salt_and_unreadable_lines() {
        let dir = std::env::temp_dir().join(format!("canon-sweep-gc-{}", std::process::id()));
        let path = dir.join("t.jsonl");
        std::fs::create_dir_all(&dir).unwrap();
        let fresh = sample_record(RecordStatus::Ok);
        let stale = StoredRecord {
            key: "1111111111111111".into(),
            salt: "canon-sweep-v1".into(),
            ..sample_record(RecordStatus::Ok)
        };
        let mut content = format!("{}\n{}\n", fresh.to_line(), stale.to_line());
        // An old-schema line and a truncated one.
        content.push_str(&fresh.to_line().replace("\"schema\":2", "\"schema\":1"));
        content.push('\n');
        content.push_str(&fresh.to_line()[..30]);
        content.push('\n');
        std::fs::write(&path, content).unwrap();

        let mut store = ResultStore::open(&path).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.unreadable_lines(), 2);
        let stats = store.compact().unwrap();
        assert_eq!(
            stats,
            CompactStats {
                kept: 1,
                dropped_stale: 1,
                dropped_unreadable: 2,
                recovered_torn_bytes: 0,
            }
        );
        // The rewritten file holds exactly the fresh record.
        let store = ResultStore::open(&path).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.unreadable_lines(), 0);
        assert_eq!(store.lookup(&fresh.key), Some(&fresh));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compact_rewrite_is_deterministic() {
        let dir = std::env::temp_dir().join(format!("canon-sweep-gc-det-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let recs: Vec<StoredRecord> = (0..8)
            .map(|i| StoredRecord {
                key: format!("{i:016x}"),
                ..sample_record(RecordStatus::Ok)
            })
            .collect();
        let mut bytes = Vec::new();
        for (run, order) in [
            (0, [3usize, 1, 7, 0, 2, 6, 4, 5]),
            (1, [5, 0, 4, 2, 7, 1, 6, 3]),
        ] {
            let path = dir.join(format!("{run}.jsonl"));
            let ordered: Vec<StoredRecord> = order.iter().map(|&i| recs[i].clone()).collect();
            let mut store = ResultStore::open(&path).unwrap();
            store.write_ordered(&ordered).unwrap();
            drop(store);
            let mut store = ResultStore::open(&path).unwrap();
            store.compact().unwrap();
            bytes.push(std::fs::read(&path).unwrap());
        }
        assert_eq!(
            bytes[0], bytes[1],
            "compaction must be insertion-order independent"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn roundtrip_failure_statuses() {
        for failure in [
            CellFailure::Panic {
                message: "injected fault: forced panic at cycle 3".into(),
            },
            CellFailure::Deadlock {
                detail: "row 0 (4 meta left)".into(),
            },
            CellFailure::Timeout {
                detail: "wall-clock budget 5000000 ns".into(),
            },
            CellFailure::Transient {
                detail: "injected transient fault".into(),
            },
        ] {
            let kind = failure.kind();
            let rec = StoredRecord {
                cycles: 917,
                ..sample_record(RecordStatus::Failed(failure))
            };
            let line = rec.to_line();
            assert!(line.contains(&format!("\"status\":\"{kind}\"")));
            let back = StoredRecord::parse(&line).expect("parses");
            assert_eq!(back, rec);
            assert_eq!(back.cycles, 917, "abort cycle is partial-stat payload");
            assert_eq!(back.to_line(), line);
        }
        assert!(!CellFailure::Panic {
            message: "x".into()
        }
        .is_transient());
        assert!(!CellFailure::Deadlock { detail: "x".into() }.is_transient());
        assert!(!CellFailure::Timeout { detail: "x".into() }.is_transient());
        assert!(CellFailure::Transient { detail: "x".into() }.is_transient());
    }

    #[test]
    fn append_journal_survives_reopen() {
        let dir = std::env::temp_dir().join(format!("canon-sweep-journal-{}", std::process::id()));
        let path = dir.join("j.jsonl");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::remove_file(&path).ok();
        let recs: Vec<StoredRecord> = (0..3)
            .map(|i| StoredRecord {
                key: format!("{i:016x}"),
                ..sample_record(RecordStatus::Ok)
            })
            .collect();
        let mut store = ResultStore::open(&path).unwrap();
        for r in &recs {
            store.append(r).unwrap();
        }
        drop(store);
        let store = ResultStore::open(&path).unwrap();
        assert_eq!(store.len(), 3);
        assert_eq!(
            store.recovery(),
            RecoveryStats {
                loaded: 3,
                unreadable_lines: 0,
                torn_tail_bytes: 0,
            }
        );
        for r in &recs {
            assert_eq!(store.lookup(&r.key), Some(r));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A journal append that fails must not index the record: the daemon
    /// answers index hits as `cached`, so an indexed-but-unjournaled record
    /// would be acknowledged and then lost on restart.
    #[test]
    fn failed_append_leaves_no_index_entry() {
        let dir = std::env::temp_dir().join(format!("canon-sweep-noindex-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let journal_dir = dir.join("journal");
        let path = journal_dir.join("j.jsonl");
        let mut store = ResultStore::open(&path).unwrap();
        // The journal's directory is a plain file: creating it fails.
        std::fs::write(&journal_dir, b"not a directory").unwrap();
        let rec = sample_record(RecordStatus::Ok);
        assert!(store.append(&rec).is_err(), "append into a file must fail");
        assert_eq!(store.lookup(&rec.key), None, "failed append was indexed");
        assert!(store.is_empty());
        // Once the directory is back, the same record journals and indexes.
        std::fs::remove_file(&journal_dir).unwrap();
        store.append(&rec).unwrap();
        assert_eq!(store.lookup(&rec.key), Some(&rec));
        let reopened = ResultStore::open(&path).unwrap();
        assert_eq!(reopened.lookup(&rec.key), Some(&rec));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_detected_truncated_and_healed() {
        let dir = std::env::temp_dir().join(format!("canon-sweep-torn-{}", std::process::id()));
        let path = dir.join("t.jsonl");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::remove_file(&path).ok();
        let a = StoredRecord {
            key: "aaaaaaaaaaaaaaaa".into(),
            ..sample_record(RecordStatus::Ok)
        };
        let b = StoredRecord {
            key: "bbbbbbbbbbbbbbbb".into(),
            ..sample_record(RecordStatus::Ok)
        };
        {
            let mut store = ResultStore::open(&path).unwrap();
            store.append(&a).unwrap();
            store.append(&b).unwrap();
        }
        // Simulate a crash mid-append: cut the file mid-way through b's line.
        let intact = std::fs::read(&path).unwrap();
        let cut = intact.len() - 25;
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(cut as u64).unwrap();
        drop(f);

        let mut store = ResultStore::open(&path).unwrap();
        let rec = store.recovery();
        assert_eq!(rec.loaded, 1, "only the intact record survives");
        assert_eq!(
            rec.unreadable_lines, 0,
            "a torn tail is not an interior bad line"
        );
        assert!(rec.torn_tail_bytes > 0);
        assert!(store.lookup(&a.key).is_some());
        assert!(store.lookup(&b.key).is_none());

        // Re-appending heals the journal in place: the torn bytes are
        // truncated before the new line lands.
        store.append(&b).unwrap();
        drop(store);
        let healed = std::fs::read(&path).unwrap();
        assert_eq!(healed, intact, "healed journal is byte-identical");

        // And compact round-trips byte-identically from either history.
        let mut s1 = ResultStore::open(&path).unwrap();
        let c = s1.compact().unwrap();
        assert_eq!(c.kept, 2);
        assert_eq!(c.recovered_torn_bytes, 0);
        let compacted = std::fs::read(&path).unwrap();
        let mut s2 = ResultStore::open(&path).unwrap();
        s2.compact().unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), compacted);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_ordered_leaves_no_tmp_file() {
        let dir = std::env::temp_dir().join(format!("canon-sweep-atomic-{}", std::process::id()));
        let path = dir.join("a.jsonl");
        std::fs::create_dir_all(&dir).unwrap();
        let mut store = ResultStore::open(&path).unwrap();
        store
            .write_ordered(&[sample_record(RecordStatus::Ok)])
            .unwrap();
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(
            names,
            vec!["a.jsonl".to_string()],
            "tmp must be renamed away"
        );
        // Appends after an atomic rewrite land after the rewritten content.
        let extra = StoredRecord {
            key: "cccccccccccccccc".into(),
            ..sample_record(RecordStatus::Ok)
        };
        store.append(&extra).unwrap();
        let reread = ResultStore::open(&path).unwrap();
        assert_eq!(reread.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fingerprint_suffixes_only_when_set() {
        let base = cfg_fingerprint(&CanonConfig::default());
        assert!(!base.contains("maxcyc") && !base.contains("wall") && !base.contains("fault"));
        let budgeted = cfg_fingerprint(&CanonConfig {
            max_cycles: Some(100),
            wall_budget_ns: Some(5_000),
            fault: Some(canon_core::FaultAction::WithholdCredits),
            ..CanonConfig::default()
        });
        assert!(
            budgeted.starts_with(&base),
            "suffixes extend, never reshape"
        );
        assert!(budgeted.contains(";maxcyc=100"));
        assert!(budgeted.contains(";wall=5000ns"));
        assert!(budgeted.contains(";fault=withhold-credits"));
    }

    #[test]
    fn store_roundtrip_on_disk() {
        let dir = std::env::temp_dir().join(format!("canon-sweep-store-{}", std::process::id()));
        let path = dir.join("t.jsonl");
        let rec = sample_record(RecordStatus::Ok);
        {
            let mut store = ResultStore::open(&path).unwrap();
            assert!(store.is_empty());
            store.write_ordered(std::slice::from_ref(&rec)).unwrap();
        }
        let store = ResultStore::open(&path).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.lookup(&rec.key), Some(&rec));
        std::fs::remove_dir_all(&dir).ok();
    }
}
