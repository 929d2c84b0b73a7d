//! Trace parsers and writers.
//!
//! Two text formats are supported:
//!
//! - **CSV**: `timestamp_ns,lba,size_bytes,op` with `op` in `{R, W}`;
//! - **blkparse**: the whitespace format emitted by `blkparse -f` queues
//!   (`<time_s> <lba> + <sectors> <R|W>`), the collection mechanism the
//!   paper names (§3.5: "AutoBlox supports storage traces collected with
//!   blktrace").

use crate::trace::{OpKind, Trace, TraceEvent};
use std::error::Error;
use std::fmt;
use std::io::{BufRead, Write};

/// Error produced while parsing a trace line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTraceError {
    line: usize,
    message: String,
}

impl ParseTraceError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        ParseTraceError {
            line,
            message: message.into(),
        }
    }

    /// 1-based line number the error occurred on.
    pub fn line(&self) -> usize {
        self.line
    }
}

impl fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl Error for ParseTraceError {}

/// The one bound every parser checks before an event reaches the
/// simulator: a request moves at least one byte, and its byte range
/// `lba·512 .. lba·512 + size_bytes` fits in a `u64`.
fn checked_event(
    line: usize,
    timestamp_ns: u64,
    lba: u64,
    size_bytes: u32,
    op: OpKind,
) -> Result<TraceEvent, ParseTraceError> {
    if size_bytes == 0 {
        return Err(ParseTraceError::new(line, "zero-size request"));
    }
    lba.checked_mul(512)
        .and_then(|start| start.checked_add(u64::from(size_bytes)))
        .ok_or_else(|| {
            ParseTraceError::new(
                line,
                format!("lba {lba} + {size_bytes} bytes overflows the 64-bit byte address space"),
            )
        })?;
    Ok(TraceEvent::new(timestamp_ns, lba, size_bytes, op))
}

fn parse_op(token: &str, line: usize) -> Result<OpKind, ParseTraceError> {
    match token {
        "R" | "r" | "RA" | "RM" => Ok(OpKind::Read),
        "W" | "w" | "WS" | "WM" => Ok(OpKind::Write),
        other => Err(ParseTraceError::new(
            line,
            format!("unknown operation {other:?} (expected R or W)"),
        )),
    }
}

/// Parses a CSV trace (`timestamp_ns,lba,size_bytes,op`).
///
/// Lines starting with `#` and blank lines are skipped. A header line
/// beginning with `timestamp` is also skipped.
///
/// # Errors
///
/// Returns [`ParseTraceError`] describing the first malformed line, or an
/// I/O error from the reader.
///
/// # Examples
///
/// ```
/// use iotrace::parse::parse_csv;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let data = "timestamp_ns,lba,size_bytes,op\n0,100,4096,R\n10,200,512,W\n";
/// let trace = parse_csv("demo", data.as_bytes())?;
/// assert_eq!(trace.len(), 2);
/// # Ok(())
/// # }
/// ```
pub fn parse_csv<R: BufRead>(name: &str, reader: R) -> Result<Trace, Box<dyn Error>> {
    let mut trace = Trace::new(name);
    for (idx, line) in reader.lines().enumerate() {
        let lineno = idx + 1;
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with("timestamp") {
            continue;
        }
        let mut parts = line.split(',');
        let mut next = |what: &str| {
            parts
                .next()
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .ok_or_else(|| ParseTraceError::new(lineno, format!("missing field {what}")))
        };
        let ts: u64 = next("timestamp_ns")?
            .parse()
            .map_err(|e| ParseTraceError::new(lineno, format!("bad timestamp: {e}")))?;
        let lba: u64 = next("lba")?
            .parse()
            .map_err(|e| ParseTraceError::new(lineno, format!("bad lba: {e}")))?;
        let size: u32 = next("size_bytes")?
            .parse()
            .map_err(|e| ParseTraceError::new(lineno, format!("bad size: {e}")))?;
        let op = parse_op(next("op")?, lineno)?;
        trace.push(checked_event(lineno, ts, lba, size, op)?);
    }
    Ok(trace)
}

/// Parses a `blkparse`-style queue trace: `<time_s> <lba> + <sectors> <op>`.
///
/// # Errors
///
/// Returns [`ParseTraceError`] describing the first malformed line, or an
/// I/O error from the reader.
///
/// # Examples
///
/// ```
/// use iotrace::parse::parse_blkparse;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let data = "0.000001000 2048 + 8 R\n0.000002000 4096 + 16 W\n";
/// let trace = parse_blkparse("demo", data.as_bytes())?;
/// assert_eq!(trace.events()[0].size_bytes, 8 * 512);
/// # Ok(())
/// # }
/// ```
pub fn parse_blkparse<R: BufRead>(name: &str, reader: R) -> Result<Trace, Box<dyn Error>> {
    let mut trace = Trace::new(name);
    for (idx, line) in reader.lines().enumerate() {
        let lineno = idx + 1;
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let tokens: Vec<&str> = line.split_whitespace().collect();
        if tokens.len() < 5 || tokens[2] != "+" {
            return Err(Box::new(ParseTraceError::new(
                lineno,
                "expected `<time_s> <lba> + <sectors> <op>`",
            )));
        }
        let secs: f64 = tokens[0]
            .parse()
            .map_err(|e| ParseTraceError::new(lineno, format!("bad time: {e}")))?;
        if !(secs.is_finite() && secs >= 0.0) {
            return Err(Box::new(ParseTraceError::new(lineno, "negative time")));
        }
        let lba: u64 = tokens[1]
            .parse()
            .map_err(|e| ParseTraceError::new(lineno, format!("bad lba: {e}")))?;
        let sectors: u32 = tokens[3]
            .parse()
            .map_err(|e| ParseTraceError::new(lineno, format!("bad sector count: {e}")))?;
        let op = parse_op(tokens[4], lineno)?;
        let size = sectors.checked_mul(512).ok_or_else(|| {
            ParseTraceError::new(
                lineno,
                format!("{sectors} sectors overflow a 32-bit byte size"),
            )
        })?;
        trace.push(checked_event(lineno, (secs * 1e9) as u64, lba, size, op)?);
    }
    Ok(trace)
}

/// Parses an MSR-Cambridge-style trace:
/// `Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime`,
/// where `Timestamp` is a Windows filetime (100 ns ticks), `Type` is
/// `Read`/`Write`, and `Offset`/`Size` are in bytes. This is the format of
/// the enterprise-server traces the paper's workload families draw on.
///
/// Timestamps are rebased so the first record starts at zero.
///
/// # Errors
///
/// Returns [`ParseTraceError`] describing the first malformed line, or an
/// I/O error from the reader.
///
/// # Examples
///
/// ```
/// use iotrace::parse::parse_msr;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let data = "128166372003061629,web0,0,Read,7014609920,24576,41286\n";
/// let trace = parse_msr("msr", data.as_bytes())?;
/// assert_eq!(trace.events()[0].size_bytes, 24576);
/// assert_eq!(trace.events()[0].timestamp_ns, 0);
/// # Ok(())
/// # }
/// ```
pub fn parse_msr<R: BufRead>(name: &str, reader: R) -> Result<Trace, Box<dyn Error>> {
    let mut events = Vec::new();
    let mut base_ticks: Option<u64> = None;
    for (idx, line) in reader.lines().enumerate() {
        let lineno = idx + 1;
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with("Timestamp") {
            continue;
        }
        let parts: Vec<&str> = line.split(',').collect();
        if parts.len() < 6 {
            return Err(Box::new(ParseTraceError::new(
                lineno,
                "expected at least 6 comma-separated MSR fields",
            )));
        }
        let ticks: u64 = parts[0]
            .trim()
            .parse()
            .map_err(|e| ParseTraceError::new(lineno, format!("bad timestamp: {e}")))?;
        let op = match parts[3].trim() {
            t if t.eq_ignore_ascii_case("read") => OpKind::Read,
            t if t.eq_ignore_ascii_case("write") => OpKind::Write,
            other => {
                return Err(Box::new(ParseTraceError::new(
                    lineno,
                    format!("unknown MSR operation {other:?}"),
                )))
            }
        };
        let offset: u64 = parts[4]
            .trim()
            .parse()
            .map_err(|e| ParseTraceError::new(lineno, format!("bad offset: {e}")))?;
        let size: u32 = parts[5]
            .trim()
            .parse()
            .map_err(|e| ParseTraceError::new(lineno, format!("bad size: {e}")))?;
        let base = *base_ticks.get_or_insert(ticks);
        // Windows filetime ticks are 100 ns.
        let ts_ns = ticks.saturating_sub(base).checked_mul(100).ok_or_else(|| {
            ParseTraceError::new(
                lineno,
                format!("timestamp {ticks} is too far past the first record's {base}"),
            )
        })?;
        events.push(checked_event(lineno, ts_ns, offset / 512, size, op)?);
    }
    Ok(Trace::from_events(name, events))
}

/// Writes a trace in the CSV format accepted by [`parse_csv`].
///
/// # Errors
///
/// Propagates I/O errors from the writer. A `&mut` writer may be passed.
pub fn write_csv<W: Write>(trace: &Trace, mut writer: W) -> std::io::Result<()> {
    writeln!(writer, "timestamp_ns,lba,size_bytes,op")?;
    for e in trace {
        writeln!(
            writer,
            "{},{},{},{}",
            e.timestamp_ns, e.lba, e.size_bytes, e.op
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_roundtrip() {
        let t = Trace::from_events(
            "rt",
            vec![
                TraceEvent::new(0, 10, 4096, OpKind::Read),
                TraceEvent::new(5, 20, 512, OpKind::Write),
            ],
        );
        let mut buf = Vec::new();
        write_csv(&t, &mut buf).unwrap();
        let parsed = parse_csv("rt", buf.as_slice()).unwrap();
        assert_eq!(parsed.events(), t.events());
    }

    #[test]
    fn csv_skips_comments_and_blank() {
        let data = "# comment\n\n0,1,512,R\n";
        let t = parse_csv("c", data.as_bytes()).unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn csv_reports_line_numbers() {
        let data = "0,1,512,R\nbroken\n";
        let err = parse_csv("c", data.as_bytes()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 2"), "{msg}");
    }

    #[test]
    fn csv_rejects_bad_op() {
        let data = "0,1,512,X\n";
        assert!(parse_csv("c", data.as_bytes()).is_err());
    }

    #[test]
    fn msr_format_parses_and_rebases() {
        let data = "Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime\n\
            128166372003061629,web0,0,Read,7014609920,24576,41286\n\
            128166372003061729,web0,0,Write,1048576,4096,100\n";
        let t = parse_msr("m", data.as_bytes()).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.events()[0].timestamp_ns, 0);
        assert_eq!(t.events()[1].timestamp_ns, 100 * 100);
        assert_eq!(t.events()[0].lba, 7014609920 / 512);
        assert_eq!(t.events()[1].op, OpKind::Write);
    }

    #[test]
    fn msr_rejects_malformed() {
        assert!(parse_msr("m", "1,host,0,Frobnicate,0,512,1\n".as_bytes()).is_err());
        assert!(parse_msr("m", "not-a-number,host,0,Read,0,512,1\n".as_bytes()).is_err());
        assert!(parse_msr("m", "1,host,0\n".as_bytes()).is_err());
    }

    #[test]
    fn blkparse_converts_units() {
        let data = "1.5 100 + 8 R\n";
        let t = parse_blkparse("b", data.as_bytes()).unwrap();
        let e = t.events()[0];
        assert_eq!(e.timestamp_ns, 1_500_000_000);
        assert_eq!(e.size_bytes, 4096);
        assert_eq!(e.lba, 100);
        assert_eq!(e.op, OpKind::Read);
    }

    #[test]
    fn blkparse_accepts_rwbs_variants() {
        let data = "0.1 0 + 1 RA\n0.2 8 + 1 WS\n";
        let t = parse_blkparse("b", data.as_bytes()).unwrap();
        assert_eq!(t.events()[0].op, OpKind::Read);
        assert_eq!(t.events()[1].op, OpKind::Write);
    }

    #[test]
    fn blkparse_rejects_malformed() {
        assert!(parse_blkparse("b", "not a trace\n".as_bytes()).is_err());
        assert!(parse_blkparse("b", "-1.0 0 + 1 R\n".as_bytes()).is_err());
        assert!(parse_blkparse("b", "0.0 0 - 1 R\n".as_bytes()).is_err());
    }
}
