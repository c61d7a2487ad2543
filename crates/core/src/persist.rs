//! Model-repository persistence.
//!
//! The paper deploys SCAGuard "at the server cluster as a guard": PoCs are
//! modeled once and the repository is reused for every security check.
//! This module gives the repository a durable form — a line-oriented,
//! versioned text format chosen over a binary one so repositories can be
//! inspected and diffed:
//!
//! ```text
//! scaguard-repo v1
//! entry FR-F FR-IAIK
//! step 401000 123 0.000000 1.000000 0.000000 0.750000
//! inst mov reg, imm
//! inst clflush mem
//! ...
//! end
//! ```

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use sca_attacks::AttackFamily;
use sca_cache::CacheState;
use sca_isa::NormInst;

use crate::cst::{Cst, CstBbs, CstStep};
use crate::detector::ModelRepository;
use crate::index::{EntryPivots, RepoIndex};

const MAGIC: &str = "scaguard-repo v1";
const CACHE_MAGIC: &str = "scaguard-modelcache v1";
const INDEX_MAGIC: &str = "scaguard-index v1";

/// Errors from loading or saving a repository / model-cache file.
///
/// Both variants carry the file's path whenever the failure came through
/// one of the filesystem entry points ([`load_repository`],
/// [`save_repository`], [`load_model_cache`], [`save_model_cache`]), so a
/// truncated or corrupted file reports *which* file broke, the 1-based
/// line, and the reason. Parsing from a string (e.g.
/// [`ModelRepository::from_text`]) has no path to report.
#[derive(Debug)]
pub enum LoadRepoError {
    /// The file could not be read or written.
    Io {
        /// The file involved, when known.
        path: Option<PathBuf>,
        /// The underlying filesystem error.
        error: std::io::Error,
    },
    /// The content is not a valid repository / model cache (with the
    /// offending 1-based line and a description).
    Parse {
        /// The file involved, when known.
        path: Option<PathBuf>,
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl LoadRepoError {
    /// Attach the originating file to an error that does not have one
    /// yet (string-level parse errors bubbling out of a file load).
    fn with_path(self, p: &Path) -> LoadRepoError {
        match self {
            LoadRepoError::Io { path: None, error } => LoadRepoError::Io {
                path: Some(p.to_path_buf()),
                error,
            },
            LoadRepoError::Parse {
                path: None,
                line,
                message,
            } => LoadRepoError::Parse {
                path: Some(p.to_path_buf()),
                line,
                message,
            },
            already_annotated => already_annotated,
        }
    }

    /// The offending 1-based line, for parse errors.
    pub fn line(&self) -> Option<usize> {
        match self {
            LoadRepoError::Parse { line, .. } => Some(*line),
            LoadRepoError::Io { .. } => None,
        }
    }

    /// The file involved, when the error came through a filesystem entry
    /// point.
    pub fn path(&self) -> Option<&Path> {
        match self {
            LoadRepoError::Io { path, .. } | LoadRepoError::Parse { path, .. } => path.as_deref(),
        }
    }
}

impl fmt::Display for LoadRepoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadRepoError::Io {
                path: Some(p),
                error,
            } => write!(f, "cannot access `{}`: {error}", p.display()),
            LoadRepoError::Io { path: None, error } => {
                write!(f, "cannot read repository: {error}")
            }
            LoadRepoError::Parse {
                path: Some(p),
                line,
                message,
            } => write!(f, "{}:{line}: {message}", p.display()),
            LoadRepoError::Parse {
                path: None,
                line,
                message,
            } => write!(f, "bad repository at line {line}: {message}"),
        }
    }
}

impl Error for LoadRepoError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            LoadRepoError::Io { error, .. } => Some(error),
            LoadRepoError::Parse { .. } => None,
        }
    }
}

fn perr(line: usize, message: impl Into<String>) -> LoadRepoError {
    LoadRepoError::Parse {
        path: None,
        line,
        message: message.into(),
    }
}

/// Append one model's `step`/`inst` lines — the record body shared by the
/// repository and model-cache formats.
fn write_steps(out: &mut String, model: &CstBbs) {
    for step in model.steps() {
        out.push_str(&format!(
            "step {:x} {} {:.6} {:.6} {:.6} {:.6}\n",
            step.bb_addr,
            step.first_seen,
            step.cst.before.ao,
            step.cst.before.io,
            step.cst.after.ao,
            step.cst.after.io,
        ));
        for inst in &step.norm_insts {
            out.push_str(&format!("inst {inst}\n"));
        }
    }
}

/// One model's `step`/`inst` lines as text — a canonical, byte-stable
/// rendering of a [`CstBbs`] (used by exactness tests and benches to
/// compare models byte-for-byte).
pub fn model_text(model: &CstBbs) -> String {
    let mut out = String::new();
    write_steps(&mut out, model);
    out
}

/// The records of a file in the line format `magic` heads: after the
/// header, each trimmed, non-blank line as its 1-based number, its record
/// kind, and the rest of the line.
fn records<'t>(
    text: &'t str,
    magic: &str,
) -> Result<impl Iterator<Item = (usize, &'t str, &'t str)>, LoadRepoError> {
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, first)) if first.trim() == magic => {}
        Some((_, first)) => return Err(perr(1, format!("expected `{magic}`, got `{first}`"))),
        None => return Err(perr(1, "empty file")),
    }
    Ok(lines.filter_map(|(idx, raw)| {
        let line = raw.trim();
        if line.is_empty() {
            return None;
        }
        let (kind, rest) = line.split_once(' ').unwrap_or((line, ""));
        Some((idx + 1, kind, rest))
    }))
}

/// Reads the `step` and `inst` records the repository and model-cache
/// formats share into the open block's model, without allocating per
/// line: step fields are parsed in place, each distinct instruction text
/// is parsed once, and each step's instructions land in one exactly
/// sized allocation.
#[derive(Default)]
struct StepReader<'t> {
    /// The instructions parsed so far, by their text. Models repeat a
    /// handful of instructions: the 1028-entry repository `build-repo
    /// --variants 256` writes has 25 distinct texts on 81,445 `inst`
    /// lines.
    memo: HashMap<&'t str, NormInst>,
    /// The open block's steps.
    steps: Vec<CstStep>,
    /// The last step's instructions so far, moved into it when the next
    /// step starts or the block ends.
    insts: Vec<NormInst>,
}

impl<'t> StepReader<'t> {
    /// Read a `step` record.
    fn step(&mut self, rest: &str, line_no: usize) -> Result<(), LoadRepoError> {
        self.close_step();
        self.steps.push(parse_step(rest, line_no)?);
        Ok(())
    }

    /// Read an `inst` record into the last step.
    fn inst(&mut self, rest: &'t str, line_no: usize) -> Result<(), LoadRepoError> {
        if self.steps.is_empty() {
            return Err(perr(line_no, "inst before any step"));
        }
        let inst = match self.memo.get(rest) {
            Some(&inst) => inst,
            None => {
                let inst = parse_inst(rest, line_no)?;
                self.memo.insert(rest, inst);
                inst
            }
        };
        self.insts.push(inst);
        Ok(())
    }

    fn close_step(&mut self) {
        if let Some(step) = self.steps.last_mut() {
            step.norm_insts = self.insts.as_slice().to_vec();
            self.insts.clear();
        }
    }

    /// The block's model; the reader is then ready for the next block.
    fn finish(&mut self) -> CstBbs {
        self.close_step();
        self.steps.drain(..).collect()
    }
}

/// Parse one `step` record body into a [`CstStep`] (instructions are
/// appended by subsequent `inst` records).
fn parse_step(rest: &str, line_no: usize) -> Result<CstStep, LoadRepoError> {
    let mut fields = [""; 6];
    let mut n = 0;
    for field in rest.split_whitespace() {
        if n == fields.len() {
            return Err(perr(line_no, "step needs 6 fields"));
        }
        fields[n] = field;
        n += 1;
    }
    if n != fields.len() {
        return Err(perr(line_no, "step needs 6 fields"));
    }
    let bb_addr = u64::from_str_radix(fields[0], 16)
        .map_err(|e| perr(line_no, format!("bad address: {e}")))?;
    let first_seen: u64 = fields[1]
        .parse()
        .map_err(|e| perr(line_no, format!("bad timestamp: {e}")))?;
    let mut occ = [0.0f64; 4];
    for (slot, field) in occ.iter_mut().zip(&fields[2..]) {
        *slot = field
            .parse()
            .map_err(|e| perr(line_no, format!("bad occupancy: {e}")))?;
    }
    if occ.iter().any(|n| !(0.0..=1.0).contains(n)) {
        return Err(perr(line_no, "occupancy out of [0, 1]"));
    }
    let (Some(before), Some(after)) = (
        CacheState::try_new(occ[0], occ[1]),
        CacheState::try_new(occ[2], occ[3]),
    ) else {
        return Err(perr(line_no, "occupancy AO + IO above 1"));
    };
    Ok(CstStep {
        bb_addr,
        first_seen,
        norm_insts: Vec::new(),
        cst: Cst { before, after },
    })
}

/// Parse one `inst` record body.
fn parse_inst(rest: &str, line_no: usize) -> Result<NormInst, LoadRepoError> {
    rest.parse().map_err(|e| perr(line_no, format!("{e}")))
}

/// Serialize a repository to the versioned text format.
pub fn repository_to_string(repo: &ModelRepository) -> String {
    let mut out = String::from(MAGIC);
    out.push('\n');
    for entry in repo.entries() {
        out.push_str(&format!("entry {} {}\n", entry.family.abbrev(), entry.name));
        write_steps(&mut out, &entry.model);
        out.push_str("end\n");
    }
    out
}

/// Parse a repository from the text format. The repository's
/// fingerprint ([`crate::repo_fingerprint`]) is that of `text` itself.
///
/// # Errors
///
/// Returns [`LoadRepoError::Parse`] with the offending line for any
/// malformed content (wrong magic, unknown family, bad numbers, steps
/// outside an entry, truncated entries).
pub fn repository_from_str(text: &str) -> Result<ModelRepository, LoadRepoError> {
    let mut body = StepReader::default();
    let mut repo = ModelRepository::new();
    let mut current: Option<(AttackFamily, &str)> = None;
    for (line_no, kind, rest) in records(text, MAGIC)? {
        match kind {
            "entry" => {
                if current.is_some() {
                    return Err(perr(line_no, "entry inside an unterminated entry"));
                }
                let (abbrev, name) = rest
                    .split_once(' ')
                    .ok_or_else(|| perr(line_no, "entry needs `<family> <name>`"))?;
                let family = AttackFamily::from_abbrev(abbrev)
                    .ok_or_else(|| perr(line_no, format!("unknown family `{abbrev}`")))?;
                current = Some((family, name));
            }
            "step" | "inst" if current.is_none() => {
                return Err(perr(line_no, format!("{kind} outside an entry")));
            }
            "step" => body.step(rest, line_no)?,
            "inst" => body.inst(rest, line_no)?,
            "end" => {
                let (family, name) = current
                    .take()
                    .ok_or_else(|| perr(line_no, "end outside an entry"))?;
                repo.add_model(family, name, body.finish());
            }
            other => return Err(perr(line_no, format!("unknown record `{other}`"))),
        }
    }
    if current.is_some() {
        return Err(perr(text.lines().count(), "unterminated entry"));
    }
    repo.seed_fingerprint(text);
    Ok(repo)
}

/// Write a repository to `path`.
///
/// # Errors
///
/// Returns [`LoadRepoError::Io`] on filesystem errors.
pub fn save_repository(
    repo: &ModelRepository,
    path: impl AsRef<Path>,
) -> Result<(), LoadRepoError> {
    let path = path.as_ref();
    let text = repository_to_string(repo);
    fs::write(path, &text).map_err(|error| LoadRepoError::Io {
        path: Some(path.to_path_buf()),
        error,
    })?;
    repo.seed_fingerprint(&text);
    Ok(())
}

/// Read a repository from `path`.
///
/// # Errors
///
/// Returns [`LoadRepoError::Io`] on filesystem errors and
/// [`LoadRepoError::Parse`] on malformed content. Both carry `path`, so
/// a truncated or corrupted file names the file, the line, and the
/// reason.
pub fn load_repository(path: impl AsRef<Path>) -> Result<ModelRepository, LoadRepoError> {
    let path = path.as_ref();
    let text = fs::read_to_string(path).map_err(|error| LoadRepoError::Io {
        path: Some(path.to_path_buf()),
        error,
    })?;
    repository_from_str(&text).map_err(|e| e.with_path(path))
}

/// Serialize a content-addressed model cache to the versioned text
/// format. Each entry is a `(canonical key, model)` pair:
///
/// ```text
/// scaguard-modelcache v1
/// model
/// key <canonical key, one line>
/// step 401000 123 0.000000 1.000000 0.000000 0.750000
/// inst clflush mem
/// ...
/// end
/// ```
///
/// The content hash is NOT stored: loaders recompute it from the
/// canonical key, so a file produced by a different (or corrupted)
/// hasher can never alias a foreign entry.
pub fn model_cache_to_string<'a>(
    entries: impl IntoIterator<Item = (&'a str, &'a CstBbs)>,
) -> String {
    let mut out = String::from(CACHE_MAGIC);
    out.push('\n');
    for (key, model) in entries {
        debug_assert!(!key.contains('\n'), "canonical keys are single-line");
        out.push_str("model\nkey ");
        out.push_str(key);
        out.push('\n');
        write_steps(&mut out, model);
        out.push_str("end\n");
    }
    out
}

/// Parse a model cache from the text format, returning
/// `(canonical key, model)` pairs in file order.
///
/// # Errors
///
/// Returns [`LoadRepoError::Parse`] with the offending line for any
/// malformed content (wrong magic, missing keys, bad numbers, records
/// outside a `model` block, truncated blocks).
pub fn model_cache_from_str(text: &str) -> Result<Vec<(String, CstBbs)>, LoadRepoError> {
    let mut body = StepReader::default();
    let mut entries = Vec::new();
    // The open model's key, once read.
    let mut current: Option<Option<&str>> = None;
    for (line_no, kind, rest) in records(text, CACHE_MAGIC)? {
        match kind {
            "model" => {
                if current.is_some() {
                    return Err(perr(line_no, "model inside an unterminated model"));
                }
                current = Some(None);
            }
            "key" => {
                let key = current
                    .as_mut()
                    .ok_or_else(|| perr(line_no, "key outside a model"))?;
                if key.is_some() {
                    return Err(perr(line_no, "duplicate key"));
                }
                if !body.steps.is_empty() {
                    return Err(perr(line_no, "key after steps"));
                }
                if rest.is_empty() {
                    return Err(perr(line_no, "empty key"));
                }
                *key = Some(rest);
            }
            "step" | "inst" if current.is_none() => {
                return Err(perr(line_no, format!("{kind} outside a model")));
            }
            "step" => body.step(rest, line_no)?,
            "inst" => body.inst(rest, line_no)?,
            "end" => {
                let key = current
                    .take()
                    .ok_or_else(|| perr(line_no, "end outside a model"))?;
                let key = key.ok_or_else(|| perr(line_no, "model without a key"))?;
                entries.push((key.to_string(), body.finish()));
            }
            other => return Err(perr(line_no, format!("unknown record `{other}`"))),
        }
    }
    if current.is_some() {
        return Err(perr(text.lines().count(), "unterminated model"));
    }
    Ok(entries)
}

/// Write a model cache to `path`.
///
/// # Errors
///
/// Returns [`LoadRepoError::Io`] on filesystem errors.
pub fn save_model_cache<'a>(
    entries: impl IntoIterator<Item = (&'a str, &'a CstBbs)>,
    path: impl AsRef<Path>,
) -> Result<(), LoadRepoError> {
    let path = path.as_ref();
    fs::write(path, model_cache_to_string(entries)).map_err(|error| LoadRepoError::Io {
        path: Some(path.to_path_buf()),
        error,
    })
}

/// Read a model cache from `path`.
///
/// # Errors
///
/// Returns [`LoadRepoError::Io`] on filesystem errors and
/// [`LoadRepoError::Parse`] on malformed content. Both carry `path`, so
/// a truncated or corrupted cache names the file, the line, and the
/// reason.
pub fn load_model_cache(path: impl AsRef<Path>) -> Result<Vec<(String, CstBbs)>, LoadRepoError> {
    let path = path.as_ref();
    let text = fs::read_to_string(path).map_err(|error| LoadRepoError::Io {
        path: Some(path.to_path_buf()),
        error,
    })?;
    model_cache_from_str(&text).map_err(|e| e.with_path(path))
}

/// Serialize a repository index to the versioned text format:
///
/// ```text
/// scaguard-index v1
/// fingerprint 0123456789abcdef
/// pivots 2
/// pivot
/// inst clflush mem
/// ...
/// end
/// pivot
/// ...
/// end
/// entries 5
/// entry 12
/// levs 0 3 7
/// levs 1 4 9
/// end
/// ...
/// ```
///
/// Every number is an integer (the fingerprint in hex, everything else
/// decimal), so the format round-trips byte-for-byte: no float
/// formatting is involved. Each `entry` block carries exactly one
/// ascending `levs` line per pivot.
pub fn index_to_string(index: &RepoIndex) -> String {
    let mut out = String::from(INDEX_MAGIC);
    out.push('\n');
    out.push_str(&format!("fingerprint {:016x}\n", index.fingerprint));
    out.push_str(&format!("pivots {}\n", index.pivots.len()));
    for pivot in &index.pivots {
        out.push_str("pivot\n");
        for inst in pivot {
            out.push_str(&format!("inst {inst}\n"));
        }
        out.push_str("end\n");
    }
    out.push_str(&format!("entries {}\n", index.entries.len()));
    for entry in &index.entries {
        out.push_str(&format!("entry {}\n", entry.max_len));
        for levs in &entry.levs {
            out.push_str("levs");
            for v in levs {
                out.push_str(&format!(" {v}"));
            }
            out.push('\n');
        }
        out.push_str("end\n");
    }
    out
}

/// Pull the next non-blank line, or report a truncation at end of file.
fn take_line<'a>(
    lines: &[(usize, &'a str)],
    pos: &mut usize,
    eof_line: usize,
    what: &str,
) -> Result<(usize, &'a str), LoadRepoError> {
    if *pos < lines.len() {
        let got = lines[*pos];
        *pos += 1;
        Ok(got)
    } else {
        Err(perr(eof_line, format!("truncated index: {what} expected")))
    }
}

/// Parse a repository index from the text format.
///
/// # Errors
///
/// Returns [`LoadRepoError::Parse`] with the offending line for any
/// malformed content (wrong magic, bad fingerprint, mismatched pivot or
/// entry counts, a `levs` line that is not sorted ascending, truncated
/// or trailing records). Stale-but-well-formed indexes parse fine here;
/// staleness is caught by [`RepoIndex::matches`] when the index is
/// attached to a repository.
pub fn index_from_str(text: &str) -> Result<RepoIndex, LoadRepoError> {
    let lines: Vec<(usize, &str)> = text
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty())
        .collect();
    let eof_line = text.lines().count().max(1);
    let mut pos = 0usize;

    let (line_no, first) = take_line(&lines, &mut pos, eof_line, "header")?;
    if first != INDEX_MAGIC {
        return Err(perr(
            line_no,
            format!("expected `{INDEX_MAGIC}`, got `{first}`"),
        ));
    }

    let (line_no, line) = take_line(&lines, &mut pos, eof_line, "fingerprint")?;
    let rest = line.strip_prefix("fingerprint ").ok_or_else(|| {
        perr(
            line_no,
            format!("expected `fingerprint <hex>`, got `{line}`"),
        )
    })?;
    let fingerprint = u64::from_str_radix(rest.trim(), 16)
        .map_err(|e| perr(line_no, format!("bad fingerprint: {e}")))?;

    let (line_no, line) = take_line(&lines, &mut pos, eof_line, "pivot count")?;
    let rest = line
        .strip_prefix("pivots ")
        .ok_or_else(|| perr(line_no, format!("expected `pivots <count>`, got `{line}`")))?;
    let pivot_count: usize = rest
        .trim()
        .parse()
        .map_err(|e| perr(line_no, format!("bad pivot count: {e}")))?;

    let mut pivots = Vec::new();
    for _ in 0..pivot_count {
        let (line_no, line) = take_line(&lines, &mut pos, eof_line, "pivot")?;
        if line != "pivot" {
            return Err(perr(line_no, format!("expected `pivot`, got `{line}`")));
        }
        let mut seq = Vec::new();
        loop {
            let (line_no, line) = take_line(&lines, &mut pos, eof_line, "`inst` or `end`")?;
            if line == "end" {
                break;
            }
            let rest = line
                .strip_prefix("inst ")
                .ok_or_else(|| perr(line_no, format!("expected `inst` or `end`, got `{line}`")))?;
            seq.push(parse_inst(rest, line_no)?);
        }
        pivots.push(seq);
    }

    let (line_no, line) = take_line(&lines, &mut pos, eof_line, "entry count")?;
    let rest = line
        .strip_prefix("entries ")
        .ok_or_else(|| perr(line_no, format!("expected `entries <count>`, got `{line}`")))?;
    let entry_count: usize = rest
        .trim()
        .parse()
        .map_err(|e| perr(line_no, format!("bad entry count: {e}")))?;

    let mut entries = Vec::new();
    for _ in 0..entry_count {
        let (line_no, line) = take_line(&lines, &mut pos, eof_line, "entry")?;
        let rest = line
            .strip_prefix("entry ")
            .ok_or_else(|| perr(line_no, format!("expected `entry <max_len>`, got `{line}`")))?;
        let max_len: u32 = rest
            .trim()
            .parse()
            .map_err(|e| perr(line_no, format!("bad max_len: {e}")))?;
        let mut levs = Vec::with_capacity(pivot_count);
        for _ in 0..pivot_count {
            let (line_no, line) = take_line(&lines, &mut pos, eof_line, "levs")?;
            let rest = line
                .strip_prefix("levs")
                .filter(|r| r.is_empty() || r.starts_with(' '))
                .ok_or_else(|| {
                    perr(
                        line_no,
                        format!("expected one `levs` line per pivot, got `{line}`"),
                    )
                })?;
            let vals: Vec<u32> = rest
                .split_whitespace()
                .map(str::parse)
                .collect::<Result<_, _>>()
                .map_err(|e| perr(line_no, format!("bad levs value: {e}")))?;
            if !vals.windows(2).all(|w| w[0] <= w[1]) {
                return Err(perr(line_no, "levs not sorted ascending"));
            }
            levs.push(vals);
        }
        let (line_no, line) = take_line(&lines, &mut pos, eof_line, "end")?;
        if line != "end" {
            return Err(perr(line_no, format!("expected `end`, got `{line}`")));
        }
        entries.push(EntryPivots { max_len, levs });
    }

    if pos < lines.len() {
        let (line_no, line) = lines[pos];
        return Err(perr(line_no, format!("trailing content `{line}`")));
    }
    Ok(RepoIndex::from_parts(fingerprint, pivots, entries))
}

/// Write a repository index to `path`.
///
/// # Errors
///
/// Returns [`LoadRepoError::Io`] on filesystem errors.
pub fn save_index(index: &RepoIndex, path: impl AsRef<Path>) -> Result<(), LoadRepoError> {
    let path = path.as_ref();
    fs::write(path, index_to_string(index)).map_err(|error| LoadRepoError::Io {
        path: Some(path.to_path_buf()),
        error,
    })
}

/// Read a repository index from `path`.
///
/// # Errors
///
/// Returns [`LoadRepoError::Io`] on filesystem errors and
/// [`LoadRepoError::Parse`] on malformed content. Both carry `path`, so
/// a truncated or corrupted index names the file, the line, and the
/// reason. Callers should treat any error as "rebuild the index from
/// the repository" — the sidecar is a cache, never the source of truth.
pub fn load_index(path: impl AsRef<Path>) -> Result<RepoIndex, LoadRepoError> {
    let path = path.as_ref();
    let text = fs::read_to_string(path).map_err(|error| LoadRepoError::Io {
        path: Some(path.to_path_buf()),
        error,
    })?;
    index_from_str(&text).map_err(|e| e.with_path(path))
}

/// The conventional sidecar location for a repository's index:
/// the repository path with `.idx` appended to the file name
/// (`repo.txt` → `repo.txt.idx`), so the pair travels together.
pub fn index_sidecar_path(repo_path: impl AsRef<Path>) -> PathBuf {
    let repo_path = repo_path.as_ref();
    let mut name = repo_path
        .file_name()
        .map(std::ffi::OsString::from)
        .unwrap_or_default();
    name.push(".idx");
    repo_path.with_file_name(name)
}

impl ModelRepository {
    /// Serialize to the versioned text format (see [`repository_to_string`]).
    pub fn to_text(&self) -> String {
        repository_to_string(self)
    }

    /// Parse from the versioned text format.
    ///
    /// # Errors
    ///
    /// See [`repository_from_str`].
    pub fn from_text(text: &str) -> Result<ModelRepository, LoadRepoError> {
        repository_from_str(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sca_isa::NormOperand;

    fn sample_repo() -> ModelRepository {
        let step = |addr: u64, change: f64| CstStep {
            bb_addr: addr,
            first_seen: addr / 4,
            norm_insts: vec![
                NormInst::binary("mov", NormOperand::Reg, NormOperand::Imm),
                NormInst::unary("clflush", NormOperand::Mem),
                NormInst::nullary("vyield"),
            ],
            cst: Cst {
                before: CacheState::full_other(),
                after: CacheState::new(change, 1.0 - change),
            },
        };
        let mut repo = ModelRepository::new();
        repo.add_model(
            AttackFamily::FlushReload,
            "FR-IAIK",
            CstBbs::new(vec![step(0x40_0000, 0.25), step(0x40_0040, 0.5)]),
        );
        repo.add_model(
            AttackFamily::SpectrePrimeProbe,
            "Spectre-PP-Trippel",
            CstBbs::new(vec![step(0x40_0100, 0.125)]),
        );
        repo
    }

    fn entries_equal(a: &crate::RepoEntry, b: &crate::RepoEntry) -> bool {
        a.family == b.family && a.name == b.name && a.model == b.model
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let repo = sample_repo();
        let text = repo.to_text();
        let loaded = ModelRepository::from_text(&text).expect("parse");
        assert_eq!(repo.len(), loaded.len());
        for (a, b) in repo.entries().iter().zip(loaded.entries()) {
            assert!(entries_equal(a, b), "{} differs", a.name);
        }
    }

    #[test]
    fn file_roundtrip() {
        let repo = sample_repo();
        let dir = std::env::temp_dir().join("scaguard-persist-test");
        std::fs::create_dir_all(&dir).expect("tempdir");
        let path = dir.join("repo.txt");
        save_repository(&repo, &path).expect("save");
        let loaded = load_repository(&path).expect("load");
        assert_eq!(loaded.len(), 2);
        std::fs::remove_file(&path).ok();
    }

    /// Every malformed repository fails with its exact 1-based line and
    /// reason.
    #[test]
    fn rejects_malformed_content() {
        let m = MAGIC;
        let cases = [
            (String::new(), 1, "empty file".to_string()),
            (
                "not a repo\n".into(),
                1,
                format!("expected `{m}`, got `not a repo`"),
            ),
            (
                format!("{m}\nentry XX-F name\nend\n"),
                2,
                "unknown family `XX-F`".into(),
            ),
            (
                format!("{m}\nentry FR-F\n"),
                2,
                "entry needs `<family> <name>`".into(),
            ),
            (
                format!("{m}\nentry FR-F x\nentry FR-F y\n"),
                3,
                "entry inside an unterminated entry".into(),
            ),
            (
                format!("{m}\nstep 0 0 0 1 0 1\n"),
                2,
                "step outside an entry".into(),
            ),
            (
                format!("{m}\n\n   \nstep 0 0 0 1 0 1\n"),
                4,
                "step outside an entry".into(),
            ),
            (
                format!("{m}\ninst nop\n"),
                2,
                "inst outside an entry".into(),
            ),
            (format!("{m}\nend\n"), 2, "end outside an entry".into()),
            (format!("{m}\nfoo bar\n"), 2, "unknown record `foo`".into()),
            (
                format!("{m}\nentry FR-F x\ninst nop\nend\n"),
                3,
                "inst before any step".into(),
            ),
            (
                format!("{m}\nentry FR-F x\n"),
                2,
                "unterminated entry".into(),
            ),
            (
                format!("{m}\nentry FR-F x\nstep 0 0 0 1 0 1\n\n"),
                4,
                "unterminated entry".into(),
            ),
            (
                format!("{m}\nentry FR-F x\nstep 0 0 0 1\nend\n"),
                3,
                "step needs 6 fields".into(),
            ),
            (
                format!("{m}\nentry FR-F x\nstep 0 0 0 1 0 1 0\nend\n"),
                3,
                "step needs 6 fields".into(),
            ),
            (
                format!("{m}\nentry FR-F x\nstep zz!! 0 0 1 0 1\nend\n"),
                3,
                "bad address: invalid digit found in string".into(),
            ),
            (
                format!("{m}\nentry FR-F x\nstep 0 -4 0 1 0 1\nend\n"),
                3,
                "bad timestamp: invalid digit found in string".into(),
            ),
            (
                format!("{m}\nentry FR-F x\nstep 0 0 2.0 nine 0 1\nend\n"),
                3,
                "bad occupancy: invalid float literal".into(),
            ),
            (
                format!("{m}\nentry FR-F x\nstep 0 0 2.0 0 0 1\nend\n"),
                3,
                "occupancy out of [0, 1]".into(),
            ),
            (
                format!("{m}\nentry FR-F x\nstep 0 0 NaN 0 0 1\nend\n"),
                3,
                "occupancy out of [0, 1]".into(),
            ),
            (
                format!("{m}\nentry FR-F x\nstep 0 0 0 1 0 1\ninst frob reg\nend\n"),
                4,
                "invalid normalized instruction `frob reg`".into(),
            ),
            (
                format!(
                    "{m}\nentry FR-F x\nstep 0 0 0 1 0 1\ninst nop\ninst mov reg, imm, mem\nend\n"
                ),
                5,
                "invalid normalized instruction `mov reg, imm, mem`".into(),
            ),
        ];
        for (text, line, reason) in &cases {
            let err = ModelRepository::from_text(text).expect_err(text);
            assert_eq!(
                err.to_string(),
                format!("bad repository at line {line}: {reason}"),
                "{text:?}"
            );
        }
    }

    #[test]
    fn model_cache_roundtrip() {
        let repo = sample_repo();
        let entries: Vec<(&str, &CstBbs)> = vec![
            ("key-a | cfg {sets: 64}", &repo.entries()[0].model),
            ("key-b | cfg {sets: 128}", &repo.entries()[1].model),
        ];
        let text = model_cache_to_string(entries.iter().copied());
        let loaded = model_cache_from_str(&text).expect("parse");
        assert_eq!(loaded.len(), 2);
        for ((key, model), (lkey, lmodel)) in entries.iter().zip(&loaded) {
            assert_eq!(*key, lkey);
            assert_eq!(*model, lmodel);
        }
    }

    /// Every malformed model cache fails with its exact 1-based line and
    /// reason; an empty one loads.
    #[test]
    fn model_cache_rejects_malformed_content() {
        let c = CACHE_MAGIC;
        let cases = [
            (String::new(), 1, "empty file".to_string()),
            (
                "not a cache\n".into(),
                1,
                format!("expected `{c}`, got `not a cache`"),
            ),
            (
                format!("{c}\nmodel\nend\n"),
                3,
                "model without a key".into(),
            ),
            (
                format!("{c}\nmodel\nmodel\n"),
                3,
                "model inside an unterminated model".into(),
            ),
            (format!("{c}\nkey a\n"), 2, "key outside a model".into()),
            (
                format!("{c}\nmodel\nkey a\nkey b\nend\n"),
                4,
                "duplicate key".into(),
            ),
            (
                format!("{c}\nmodel\nstep 0 0 0 1 0 1\nkey a\nend\n"),
                4,
                "key after steps".into(),
            ),
            (format!("{c}\nmodel\nkey\nend\n"), 3, "empty key".into()),
            (
                format!("{c}\nstep 0 0 0 1 0 1\n"),
                2,
                "step outside a model".into(),
            ),
            (format!("{c}\ninst nop\n"), 2, "inst outside a model".into()),
            (format!("{c}\nend\n"), 2, "end outside a model".into()),
            (
                format!("{c}\nentry FR-F x\n"),
                2,
                "unknown record `entry`".into(),
            ),
            (
                format!("{c}\nmodel\nkey k\ninst nop\nend\n"),
                4,
                "inst before any step".into(),
            ),
            (
                format!("{c}\nmodel\nkey k\n"),
                3,
                "unterminated model".into(),
            ),
            (
                format!("{c}\nmodel\nkey k\nstep 0 0\nend\n"),
                4,
                "step needs 6 fields".into(),
            ),
            (
                format!("{c}\nmodel\nkey k\nstep 0 0 0 1 0 nine\nend\n"),
                4,
                "bad occupancy: invalid float literal".into(),
            ),
            (
                format!("{c}\nmodel\nkey k\nstep 0 0 0 1 0 1\ninst frob\nend\n"),
                5,
                "invalid normalized instruction `frob`".into(),
            ),
        ];
        for (text, line, reason) in &cases {
            let err = model_cache_from_str(text).expect_err(text);
            assert_eq!(
                err.to_string(),
                format!("bad repository at line {line}: {reason}"),
                "{text:?}"
            );
        }
        let empty = model_cache_from_str(CACHE_MAGIC).expect("empty cache ok");
        assert!(empty.is_empty());
    }

    /// Load each corrupt body from a real file and assert the error names
    /// the file, the 1-based line, and the reason.
    fn assert_file_error(
        tag: &str,
        body: &str,
        want_line: usize,
        want_reason: &str,
        load: impl Fn(&Path) -> Option<LoadRepoError>,
    ) {
        let dir = std::env::temp_dir().join(format!("scaguard-corrupt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tempdir");
        let path = dir.join(format!("{tag}.txt"));
        std::fs::write(&path, body).expect("write corrupt file");
        let err = load(&path).unwrap_or_else(|| panic!("{tag}: corrupt file must not load"));
        assert_eq!(
            err.path(),
            Some(path.as_path()),
            "{tag}: error names the file"
        );
        assert_eq!(
            err.line(),
            Some(want_line),
            "{tag}: error names the line: {err}"
        );
        let text = err.to_string();
        assert!(
            text.contains(&path.display().to_string()),
            "{tag}: display includes the path: {text}"
        );
        assert!(
            text.contains(&format!(":{want_line}:")),
            "{tag}: display includes the line: {text}"
        );
        assert!(
            text.contains(want_reason),
            "{tag}: display includes the reason `{want_reason}`: {text}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_repository_files_report_file_line_and_reason() {
        let load = |p: &Path| load_repository(p).err();
        // Corrupted header.
        assert_file_error("repo-header", "scaguard-repo v999\n", 1, "expected", load);
        // Short record: a step line missing fields.
        let short = format!("{MAGIC}\nentry FR-F x\nstep 0 0 0 1\nend\n");
        assert_file_error("repo-short-step", &short, 3, "step needs 6 fields", load);
        // Bad integer in a step.
        let bad_int = format!("{MAGIC}\nentry FR-F x\nstep zz!! 0 0 1 0 1\nend\n");
        assert_file_error("repo-bad-int", &bad_int, 3, "bad address", load);
        let bad_ts = format!("{MAGIC}\nentry FR-F x\nstep 0 -4 0 1 0 1\nend\n");
        assert_file_error("repo-bad-ts", &bad_ts, 3, "bad timestamp", load);
        // Truncated file: entry never terminated.
        let truncated = format!("{MAGIC}\nentry FR-F x\nstep 0 0 0 1 0 1\n");
        assert_file_error("repo-truncated", &truncated, 3, "unterminated entry", load);
        // Each occupancy in range, but AO + IO above 1: a cache state
        // that cannot exist, refused rather than panicking the loader.
        let oversum = format!(
            "{MAGIC}\nentry FR-F x\nstep 0 0 0 1 0 1\n\
             step 400000 1 0.600000 0.600000 0.000000 1.000000\nend\n"
        );
        assert_file_error("repo-oversum", &oversum, 4, "AO + IO above 1", load);
    }

    #[test]
    fn corrupt_model_cache_files_report_file_line_and_reason() {
        let load = |p: &Path| load_model_cache(p).err();
        assert_file_error(
            "cache-header",
            "scaguard-modelcache v9\n",
            1,
            "expected",
            load,
        );
        let short = format!("{CACHE_MAGIC}\nmodel\nkey k\nstep 0 0\nend\n");
        assert_file_error("cache-short-step", &short, 4, "step needs 6 fields", load);
        let bad_occ = format!("{CACHE_MAGIC}\nmodel\nkey k\nstep 0 0 0 1 0 nine\nend\n");
        assert_file_error("cache-bad-num", &bad_occ, 4, "bad occupancy", load);
        let truncated = format!("{CACHE_MAGIC}\nmodel\nkey k\n");
        assert_file_error("cache-truncated", &truncated, 3, "unterminated model", load);
        let oversum = format!(
            "{CACHE_MAGIC}\nmodel\nkey k\n\
             step 400000 1 0.000000 1.000000 0.600000 0.600000\nend\n"
        );
        assert_file_error("cache-oversum", &oversum, 4, "AO + IO above 1", load);
    }

    #[test]
    fn index_roundtrip_is_byte_stable() {
        use crate::index::IndexConfig;
        let repo = sample_repo();
        let index = RepoIndex::build(&repo, &IndexConfig::default());
        let text = index_to_string(&index);
        let loaded = index_from_str(&text).expect("parse");
        assert!(loaded.matches(&repo), "loaded index still fits the repo");
        assert_eq!(
            index_to_string(&loaded),
            text,
            "serialize -> parse -> serialize is byte-identical"
        );

        let dir = std::env::temp_dir().join("scaguard-persist-test");
        std::fs::create_dir_all(&dir).expect("tempdir");
        let path = dir.join("repo.txt");
        let sidecar = index_sidecar_path(&path);
        assert_eq!(sidecar, dir.join("repo.txt.idx"));
        save_index(&index, &sidecar).expect("save");
        let from_disk = load_index(&sidecar).expect("load");
        assert_eq!(index_to_string(&from_disk), text);
        std::fs::remove_file(&sidecar).ok();
    }

    #[test]
    fn corrupt_index_files_report_file_line_and_reason() {
        let load = |p: &Path| load_index(p).err();
        // Corrupted header.
        assert_file_error("index-header", "scaguard-index v999\n", 1, "expected", load);
        // Fingerprint that is not hex.
        let bad_fp = format!("{INDEX_MAGIC}\nfingerprint zz!!\npivots 0\nentries 0\n");
        assert_file_error("index-bad-fp", &bad_fp, 2, "bad fingerprint", load);
        // Entry promising more levs lines than pivots provide.
        let short_levs = format!(
            "{INDEX_MAGIC}\nfingerprint 00\npivots 2\npivot\nend\npivot\nend\n\
             entries 1\nentry 3\nlevs 0 1\nend\n"
        );
        assert_file_error(
            "index-short-levs",
            &short_levs,
            11,
            "expected one `levs` line per pivot",
            load,
        );
        // A levs line out of order.
        let unsorted = format!(
            "{INDEX_MAGIC}\nfingerprint 00\npivots 1\npivot\nend\n\
             entries 1\nentry 3\nlevs 5 2\nend\n"
        );
        assert_file_error("index-unsorted", &unsorted, 8, "not sorted", load);
        // Truncated: fewer entries than declared.
        let truncated =
            format!("{INDEX_MAGIC}\nfingerprint 00\npivots 0\nentries 2\nentry 3\nend\n");
        assert_file_error("index-truncated", &truncated, 6, "truncated index", load);
        // Trailing garbage after a complete index.
        let trailing = format!("{INDEX_MAGIC}\nfingerprint 00\npivots 0\nentries 0\nextra\n");
        assert_file_error("index-trailing", &trailing, 5, "trailing content", load);
    }

    #[test]
    fn missing_file_error_names_the_file() {
        let path = Path::new("/nonexistent/scaguard-no-such-file.repo");
        let err = load_repository(path).expect_err("missing file");
        assert_eq!(err.path(), Some(path));
        assert!(err.to_string().contains("scaguard-no-such-file"));
        // String-level parsing has no path to report.
        let err = ModelRepository::from_text("nope").expect_err("bad text");
        assert_eq!(err.path(), None);
    }

    #[test]
    fn loaded_repository_scores_identically() {
        use crate::similarity_score;
        let repo = sample_repo();
        let loaded = ModelRepository::from_text(&repo.to_text()).expect("parse");
        let target = &repo.entries()[0].model;
        let s1 = similarity_score(target, &repo.entries()[1].model);
        let s2 = similarity_score(target, &loaded.entries()[1].model);
        assert_eq!(s1, s2);
        assert_eq!(similarity_score(target, &loaded.entries()[0].model), 1.0);
    }
}
