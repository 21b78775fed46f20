//! Reading and writing request traces as CSV.
//!
//! The similarity study (Figures 3/4) and the Past-Future history window
//! only need `(arrival_order, input_len, output_len)` per request — the
//! schema below is a minimal common denominator of public traces such as
//! BurstGPT (`Timestamp, Model, Request tokens, Response tokens, ...`).
//! Users with access to real traces can export them to this schema and run
//! every experiment in this workspace on them; the synthetic generators in
//! [`crate::trace`] exist only because the real traces cannot be shipped.
//!
//! Format: a header line
//! `input_len,output_len,prefix_id,prefix_len,arrival_us,deadline_us`
//! followed by one
//! record per request in arrival order. Extra columns are ignored on
//! import; column order is taken from the header.
//!
//! # Arrival column (backward-compatible)
//!
//! `arrival_us` carries the request's arrival timestamp in microseconds
//! from trace start, letting a trace drive the timed cluster runners
//! (`bench --bin trace_replay` round-trips a generated workload through
//! this column and replays it through the elastic and disaggregated
//! clusters deterministically). Like the prefix columns it is **optional
//! on import** — traces without it parse as before with no timestamps —
//! and an empty field means "no timestamp". `deadline_us` likewise
//! carries the optional per-request cancellation deadline
//! ([`RequestSpec::with_deadline`]) so a trace recorded from a
//! deadline-carrying workload replays with the same timeout behavior;
//! absent or empty (or zero) means "no deadline".
//!
//! # Prefix columns (backward-compatible)
//!
//! `prefix_id` and `prefix_len` carry the shared-prefix structure that
//! KV-aware prefix-affinity routing consumes (see
//! [`crate::datasets::multi_turn_chat`]): `prefix_id` names the session or
//! system-prompt prefix the request extends, and `prefix_len` is how many
//! of the request's leading prompt tokens repeat it. Both columns are
//! **optional on import**: traces written before these columns existed —
//! or any export that omits them — parse exactly as before, defaulting
//! every record to no prefix (`prefix_id` empty, `prefix_len` 0). An empty
//! `prefix_id` field means "no shared prefix"; `prefix_len` is only
//! meaningful alongside a non-empty `prefix_id`.

use std::io::{BufRead, BufReader, Read, Write};

use pf_metrics::{SimDuration, SimTime};

use crate::request::RequestSpec;

/// A minimal trace record: one request's input and output lengths (plus
/// optional shared-prefix structure and arrival timestamp), in arrival
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceRecord {
    /// Prompt length in tokens.
    pub input_len: u32,
    /// Output length in tokens.
    pub output_len: u32,
    /// Shared prefix the request extends (`None` for prefix-free traffic
    /// and for traces without the column).
    pub prefix_id: Option<u64>,
    /// Leading prompt tokens repeating the prefix (0 without a prefix).
    pub prefix_len: u32,
    /// Arrival timestamp in microseconds from trace start (`None` for
    /// traces without the column).
    pub arrival_us: Option<u64>,
    /// Cancellation deadline in microseconds from arrival (`None` for
    /// deadline-free requests and traces without the column).
    pub deadline_us: Option<u64>,
}

/// Error raised while parsing a trace CSV.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTraceError {
    /// 1-based line number of the offending record.
    pub line: usize,
    /// What was wrong.
    pub message: String,
}

impl std::fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace csv line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseTraceError {}

/// Parses a trace from CSV with an `input_len,output_len` header.
///
/// Column order is taken from the header (case-insensitive names
/// `input_len`/`output_len`; additional columns are ignored), so BurstGPT
/// exports with extra metadata columns work unchanged.
///
/// # Errors
///
/// Returns [`ParseTraceError`] for a missing/invalid header, non-numeric
/// fields, or rows with too few columns. I/O errors are reported on the
/// offending line.
///
/// # Example
///
/// ```
/// use pf_workload::trace_io::read_trace_csv;
///
/// let csv = "input_len,output_len\n120,480\n88,32\n";
/// let records = read_trace_csv(csv.as_bytes())?;
/// assert_eq!(records.len(), 2);
/// assert_eq!(records[0].output_len, 480);
/// # Ok::<(), pf_workload::trace_io::ParseTraceError>(())
/// ```
pub fn read_trace_csv<R: Read>(reader: R) -> Result<Vec<TraceRecord>, ParseTraceError> {
    let mut lines = BufReader::new(reader).lines().enumerate();
    let header = match lines.next() {
        Some((_, Ok(line))) => line,
        Some((_, Err(e))) => {
            return Err(ParseTraceError {
                line: 1,
                message: format!("io error: {e}"),
            })
        }
        None => {
            return Err(ParseTraceError {
                line: 1,
                message: "empty file".to_string(),
            })
        }
    };
    let columns: Vec<String> = header
        .split(',')
        .map(|c| c.trim().to_ascii_lowercase())
        .collect();
    let input_col = columns.iter().position(|c| c == "input_len");
    let output_col = columns.iter().position(|c| c == "output_len");
    let (Some(input_col), Some(output_col)) = (input_col, output_col) else {
        return Err(ParseTraceError {
            line: 1,
            message: format!("header must name input_len and output_len, got '{header}'"),
        });
    };
    // Optional prefix/arrival columns: absent in older traces, which
    // default to prefix-free, untimed records (see the module docs).
    let prefix_id_col = columns.iter().position(|c| c == "prefix_id");
    let prefix_len_col = columns.iter().position(|c| c == "prefix_len");
    let arrival_col = columns.iter().position(|c| c == "arrival_us");
    let deadline_col = columns.iter().position(|c| c == "deadline_us");
    let mut records = Vec::new();
    for (idx, line) in lines {
        let line_no = idx + 1;
        let line = line.map_err(|e| ParseTraceError {
            line: line_no,
            message: format!("io error: {e}"),
        })?;
        if line.trim().is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        let field = |col: usize, name: &str| -> Result<u32, ParseTraceError> {
            let raw = fields.get(col).ok_or_else(|| ParseTraceError {
                line: line_no,
                message: format!("missing {name} column"),
            })?;
            raw.trim().parse().map_err(|_| ParseTraceError {
                line: line_no,
                message: format!("invalid {name} value '{raw}'"),
            })
        };
        // An empty prefix_id field means "no shared prefix"; a row in a
        // prefix-aware trace may also simply be shorter than the prefix
        // columns (defaults apply).
        let prefix_id = match prefix_id_col.and_then(|col| fields.get(col)) {
            Some(raw) if !raw.trim().is_empty() => {
                Some(raw.trim().parse().map_err(|_| ParseTraceError {
                    line: line_no,
                    message: format!("invalid prefix_id value '{raw}'"),
                })?)
            }
            _ => None,
        };
        let prefix_len = match prefix_len_col.and_then(|col| fields.get(col)) {
            Some(raw) if !raw.trim().is_empty() => {
                raw.trim().parse().map_err(|_| ParseTraceError {
                    line: line_no,
                    message: format!("invalid prefix_len value '{raw}'"),
                })?
            }
            _ => 0,
        };
        let optional_u64 =
            |col: Option<usize>, name: &str| -> Result<Option<u64>, ParseTraceError> {
                match col.and_then(|col| fields.get(col)) {
                    Some(raw) if !raw.trim().is_empty() => {
                        Ok(Some(raw.trim().parse().map_err(|_| ParseTraceError {
                            line: line_no,
                            message: format!("invalid {name} value '{raw}'"),
                        })?))
                    }
                    _ => Ok(None),
                }
            };
        let arrival_us = optional_u64(arrival_col, "arrival_us")?;
        let deadline_us = optional_u64(deadline_col, "deadline_us")?;
        records.push(TraceRecord {
            input_len: field(input_col, "input_len")?,
            output_len: field(output_col, "output_len")?,
            prefix_id,
            prefix_len,
            arrival_us,
            deadline_us,
        });
    }
    Ok(records)
}

/// Writes a trace in the canonical
/// `input_len,output_len,prefix_id,prefix_len,arrival_us,deadline_us`
/// schema (prefix-free records leave the `prefix_id` field empty; untimed
/// records leave `arrival_us` empty; deadline-free records leave
/// `deadline_us` empty).
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_trace_csv<W: Write>(mut writer: W, records: &[TraceRecord]) -> std::io::Result<()> {
    writeln!(
        writer,
        "input_len,output_len,prefix_id,prefix_len,arrival_us,deadline_us"
    )?;
    for record in records {
        let opt = |v: Option<u64>| v.map_or(String::new(), |t| t.to_string());
        let prefix_id = record.prefix_id.map_or(String::new(), |id| id.to_string());
        writeln!(
            writer,
            "{},{},{},{},{},{}",
            record.input_len,
            record.output_len,
            prefix_id,
            record.prefix_len,
            opt(record.arrival_us),
            opt(record.deadline_us)
        )?;
    }
    Ok(())
}

/// Converts trace records into simulator requests.
///
/// `max_new_tokens` caps the generation exactly as the serving system
/// would; records whose output exceeds the cap are clamped (the real
/// system would have cut them off too). Records with zero output are
/// dropped (log-style traces occasionally contain aborted requests).
/// Prefix structure and deadlines carry over; a `prefix_len` exceeding
/// the prompt is clamped to it, and a zero `deadline_us` (which could
/// never be met) is treated as no deadline — both defensive against
/// hand-edited traces.
pub fn requests_from_records(records: &[TraceRecord], max_new_tokens: u32) -> Vec<RequestSpec> {
    records
        .iter()
        .filter(|r| r.output_len > 0)
        .enumerate()
        .map(|(i, r)| {
            let mut spec = RequestSpec::new(
                i as u64,
                r.input_len,
                r.output_len.min(max_new_tokens),
                max_new_tokens,
            );
            if let Some(id) = r.prefix_id {
                spec = spec.with_prefix(id, r.prefix_len.min(r.input_len));
            }
            if let Some(us) = r.deadline_us.filter(|&us| us > 0) {
                spec = spec.with_deadline(SimDuration::from_micros(us));
            }
            spec
        })
        .collect()
}

/// Extracts records from generated requests (round-trip with
/// [`requests_from_records`]).
fn records_from_requests(requests: &[RequestSpec]) -> Vec<TraceRecord> {
    requests
        .iter()
        .map(|r| TraceRecord {
            input_len: r.input_len,
            output_len: r.true_output_len,
            prefix_id: r.prefix_id.map(|p| p.raw()),
            prefix_len: r.prefix_len,
            arrival_us: None,
            deadline_us: r.deadline.map(|d| d.as_micros()),
        })
        .collect()
}

/// Extracts records carrying arrival timestamps from a timed workload
/// (round-trip with [`requests_from_records`] +
/// [`arrival_times_from_records`]) — the export half of trace replay.
///
/// # Panics
///
/// Panics if `requests.len() != arrival_times.len()`.
pub fn records_from_timed_requests(
    requests: &[RequestSpec],
    arrival_times: &[SimTime],
) -> Vec<TraceRecord> {
    assert_eq!(
        requests.len(),
        arrival_times.len(),
        "one arrival time per request"
    );
    let mut records = records_from_requests(requests);
    for (record, at) in records.iter_mut().zip(arrival_times) {
        record.arrival_us = Some(at.as_micros());
    }
    records
}

/// Arrival times of a timed trace, or `None` when any record lacks the
/// `arrival_us` column (an untimed trace — callers fall back to synthetic
/// arrivals). Timestamps are returned in record order; the cluster
/// runners assert monotonicity, exactly as they do for generated streams.
/// Records dropped by [`requests_from_records`] (zero-output rows) are
/// skipped here too, so the two vectors stay aligned.
pub fn arrival_times_from_records(records: &[TraceRecord]) -> Option<Vec<SimTime>> {
    records
        .iter()
        .filter(|r| r.output_len > 0)
        .map(|r| r.arrival_us.map(SimTime::from_micros))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets;

    #[test]
    fn parse_minimal_csv() {
        let csv = "input_len,output_len\n10,20\n30,40\n";
        let records = read_trace_csv(csv.as_bytes()).unwrap();
        assert_eq!(
            records,
            vec![
                TraceRecord {
                    input_len: 10,
                    output_len: 20,
                    ..TraceRecord::default()
                },
                TraceRecord {
                    input_len: 30,
                    output_len: 40,
                    ..TraceRecord::default()
                },
            ]
        );
    }

    #[test]
    fn parse_reordered_and_extra_columns() {
        let csv = "timestamp,output_len,model,input_len\n1.5,99,gpt,7\n";
        let records = read_trace_csv(csv.as_bytes()).unwrap();
        assert_eq!(
            records,
            vec![TraceRecord {
                input_len: 7,
                output_len: 99,
                ..TraceRecord::default()
            }]
        );
    }

    #[test]
    fn parse_skips_blank_lines_and_trims() {
        let csv = "input_len , output_len\n 10 , 20 \n\n30,40\n";
        let records = read_trace_csv(csv.as_bytes()).unwrap();
        assert_eq!(records.len(), 2);
    }

    #[test]
    fn parse_errors_are_located() {
        let bad_header = read_trace_csv("foo,bar\n1,2\n".as_bytes()).unwrap_err();
        assert_eq!(bad_header.line, 1);
        let bad_value = read_trace_csv("input_len,output_len\n1,x\n".as_bytes()).unwrap_err();
        assert_eq!(bad_value.line, 2);
        assert!(bad_value.to_string().contains("invalid output_len"));
        let short_row = read_trace_csv("input_len,output_len\n5\n".as_bytes()).unwrap_err();
        assert!(short_row.message.contains("missing output_len"));
        let empty = read_trace_csv("".as_bytes()).unwrap_err();
        assert!(empty.message.contains("empty"));
    }

    #[test]
    fn old_schema_defaults_to_no_prefix() {
        // Pre-prefix traces (no prefix columns) parse unchanged.
        let csv = "input_len,output_len\n10,20\n";
        let records = read_trace_csv(csv.as_bytes()).unwrap();
        assert_eq!(records[0].prefix_id, None);
        assert_eq!(records[0].prefix_len, 0);
    }

    #[test]
    fn prefix_columns_parse_and_roundtrip() {
        let csv = "input_len,output_len,prefix_id,prefix_len\n300,40,7,250\n80,10,,0\n";
        let records = read_trace_csv(csv.as_bytes()).unwrap();
        assert_eq!(records[0].prefix_id, Some(7));
        assert_eq!(records[0].prefix_len, 250);
        assert_eq!(records[1].prefix_id, None);
        let mut buffer = Vec::new();
        write_trace_csv(&mut buffer, &records).unwrap();
        assert_eq!(read_trace_csv(buffer.as_slice()).unwrap(), records);
        // Conversion carries the prefix into the request spec.
        let requests = requests_from_records(&records, 512);
        assert_eq!(requests[0].prefix_id.map(|p| p.raw()), Some(7));
        assert_eq!(requests[0].prefix_len, 250);
        assert_eq!(requests[1].prefix_id, None);
    }

    #[test]
    fn invalid_prefix_values_are_located() {
        let bad_id =
            read_trace_csv("input_len,output_len,prefix_id,prefix_len\n1,2,x,0\n".as_bytes())
                .unwrap_err();
        assert_eq!(bad_id.line, 2);
        assert!(bad_id.message.contains("invalid prefix_id"));
        let bad_len =
            read_trace_csv("input_len,output_len,prefix_id,prefix_len\n1,2,3,-1\n".as_bytes())
                .unwrap_err();
        assert!(bad_len.message.contains("invalid prefix_len"));
    }

    #[test]
    fn arrival_column_parses_and_roundtrips() {
        let csv =
            "input_len,output_len,prefix_id,prefix_len,arrival_us\n10,20,,0,1500000\n30,40,,0,\n";
        let records = read_trace_csv(csv.as_bytes()).unwrap();
        assert_eq!(records[0].arrival_us, Some(1_500_000));
        assert_eq!(records[1].arrival_us, None);
        let mut buffer = Vec::new();
        write_trace_csv(&mut buffer, &records).unwrap();
        assert_eq!(read_trace_csv(buffer.as_slice()).unwrap(), records);
        // A record without a timestamp makes the trace untimed.
        assert_eq!(arrival_times_from_records(&records), None);
    }

    #[test]
    fn timed_requests_roundtrip_exactly() {
        let requests = datasets::short_chat(40, 9);
        let arrivals: Vec<SimTime> = (0..40)
            .map(|i| SimTime::from_micros(123_457 * i as u64))
            .collect();
        let records = records_from_timed_requests(&requests, &arrivals);
        let mut buffer = Vec::new();
        write_trace_csv(&mut buffer, &records).unwrap();
        let parsed = read_trace_csv(buffer.as_slice()).unwrap();
        assert_eq!(parsed, records);
        let rebuilt_arrivals = arrival_times_from_records(&parsed).expect("timed trace");
        assert_eq!(rebuilt_arrivals, arrivals, "microsecond-exact round trip");
        let rebuilt = requests_from_records(&parsed, 512);
        assert_eq!(rebuilt, requests, "short_chat uses one max_new_tokens cap");
    }

    #[test]
    fn deadline_column_parses_converts_and_roundtrips() {
        let csv = "input_len,output_len,prefix_id,prefix_len,arrival_us,deadline_us\n\
                   100,20,,0,0,30000000\n100,20,,0,1000,\n100,20,,0,2000,0\n";
        let records = read_trace_csv(csv.as_bytes()).unwrap();
        assert_eq!(records[0].deadline_us, Some(30_000_000));
        assert_eq!(records[1].deadline_us, None);
        let mut buffer = Vec::new();
        write_trace_csv(&mut buffer, &records).unwrap();
        assert_eq!(read_trace_csv(buffer.as_slice()).unwrap(), records);
        let requests = requests_from_records(&records, 64);
        assert_eq!(requests[0].deadline, Some(SimDuration::from_secs(30)));
        assert_eq!(requests[1].deadline, None);
        assert_eq!(
            requests[2].deadline, None,
            "a zero deadline is sanitized away, not panicked on"
        );
        // And back out: extraction preserves the deadline.
        let back = records_from_requests(&requests);
        assert_eq!(back[0].deadline_us, Some(30_000_000));
        assert_eq!(back[1].deadline_us, None);
    }

    #[test]
    fn invalid_arrival_value_is_located() {
        let bad =
            read_trace_csv("input_len,output_len,arrival_us\n1,2,soon\n".as_bytes()).unwrap_err();
        assert_eq!(bad.line, 2);
        assert!(bad.message.contains("invalid arrival_us"));
    }

    #[test]
    fn arrival_times_skip_dropped_records() {
        let records = vec![
            TraceRecord {
                input_len: 10,
                output_len: 5,
                arrival_us: Some(0),
                ..TraceRecord::default()
            },
            TraceRecord {
                input_len: 10,
                output_len: 0, // dropped by requests_from_records
                arrival_us: Some(50),
                ..TraceRecord::default()
            },
            TraceRecord {
                input_len: 10,
                output_len: 7,
                arrival_us: Some(100),
                ..TraceRecord::default()
            },
        ];
        let requests = requests_from_records(&records, 64);
        let arrivals = arrival_times_from_records(&records).expect("timed");
        assert_eq!(requests.len(), arrivals.len());
        assert_eq!(arrivals, vec![SimTime::ZERO, SimTime::from_micros(100)]);
    }

    #[test]
    fn multi_turn_sessions_roundtrip_through_csv() {
        let requests = datasets::multi_turn_chat(60, 5);
        let records = records_from_requests(&requests);
        let mut buffer = Vec::new();
        write_trace_csv(&mut buffer, &records).unwrap();
        let parsed = read_trace_csv(buffer.as_slice()).unwrap();
        assert_eq!(parsed, records);
        let rebuilt = requests_from_records(&parsed, 512);
        for (a, b) in rebuilt.iter().zip(&requests) {
            assert_eq!(a.prefix_id, b.prefix_id);
            assert_eq!(a.prefix_len, b.prefix_len);
        }
    }

    #[test]
    fn roundtrip_through_csv() {
        let requests = datasets::sharegpt(50, 1);
        let records = records_from_requests(&requests);
        let mut buffer = Vec::new();
        write_trace_csv(&mut buffer, &records).unwrap();
        let parsed = read_trace_csv(buffer.as_slice()).unwrap();
        assert_eq!(parsed, records);
        let rebuilt = requests_from_records(&parsed, 2048);
        assert_eq!(rebuilt.len(), requests.len());
        for (a, b) in rebuilt.iter().zip(&requests) {
            assert_eq!(a.input_len, b.input_len);
            assert_eq!(a.true_output_len, b.true_output_len);
        }
    }

    #[test]
    fn conversion_clamps_and_drops() {
        let records = [
            TraceRecord {
                input_len: 10,
                output_len: 5000,
                ..TraceRecord::default()
            },
            TraceRecord {
                input_len: 10,
                output_len: 0,
                ..TraceRecord::default()
            },
            TraceRecord {
                input_len: 10,
                output_len: 7,
                ..TraceRecord::default()
            },
        ];
        let requests = requests_from_records(&records, 2048);
        assert_eq!(requests.len(), 2, "zero-output record dropped");
        assert_eq!(requests[0].true_output_len, 2048, "over-cap output clamped");
        assert_eq!(requests[1].true_output_len, 7);
        // Ids are re-assigned densely.
        assert_eq!(requests[1].id.raw(), 1);
    }
}
