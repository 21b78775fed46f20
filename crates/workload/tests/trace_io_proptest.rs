//! Property tests for trace CSV I/O: `write_trace_csv ∘ read_trace_csv`
//! is the identity over arbitrary traces, and malformed rows fail with
//! correctly located errors.

use pf_metrics::SimTime;
use pf_workload::trace_io::{
    read_trace_csv, records_from_timed_requests, requests_from_records, write_trace_csv,
    TraceRecord,
};
use proptest::prelude::*;

fn records_strategy() -> impl Strategy<Value = Vec<TraceRecord>> {
    proptest::collection::vec(
        (
            0u32..100_000,
            0u32..100_000,
            // Two in three records carry a session prefix (the offline
            // proptest shim has no `option::of`).
            0u64..3_000,
            0u32..100_000,
            // Half the records carry an arrival timestamp; a third carry
            // a (nonzero) deadline.
            0u64..10_000_000_000,
            1u64..600_000_000,
        )
            .prop_map(
                |(input_len, output_len, prefix_raw, prefix_len, arrival_raw, deadline_raw)| {
                    let prefix_id = (prefix_raw % 3 != 0).then_some(prefix_raw);
                    TraceRecord {
                        input_len,
                        output_len,
                        prefix_id,
                        // A prefix length is only meaningful alongside a prefix
                        // id and within the prompt.
                        prefix_len: if prefix_id.is_some() {
                            prefix_len.min(input_len)
                        } else {
                            0
                        },
                        arrival_us: (arrival_raw % 2 == 0).then_some(arrival_raw),
                        deadline_us: (deadline_raw % 3 == 0).then_some(deadline_raw),
                    }
                },
            ),
        0..200,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Writing a trace and reading it back reproduces it exactly,
    /// including the empty trace and extreme lengths.
    #[test]
    fn write_then_read_is_identity(records in records_strategy()) {
        let mut buffer = Vec::new();
        write_trace_csv(&mut buffer, &records).expect("in-memory write");
        let parsed = read_trace_csv(buffer.as_slice()).expect("reparse own output");
        prop_assert_eq!(parsed, records);
    }

    /// The request-conversion round trip preserves lengths for every
    /// positive-output record (zero-output records are dropped by
    /// contract, over-cap outputs clamped).
    #[test]
    fn request_roundtrip_preserves_lengths(records in records_strategy()) {
        let cap = 1u32 << 20;
        let requests = requests_from_records(&records, cap);
        let survivors: Vec<&TraceRecord> =
            records.iter().filter(|r| r.output_len > 0).collect();
        prop_assert_eq!(requests.len(), survivors.len());
        for (request, record) in requests.iter().zip(survivors) {
            prop_assert_eq!(request.input_len, record.input_len);
            prop_assert_eq!(request.true_output_len, record.output_len.min(cap));
        }
        // And back: extracting records from the requests matches the
        // surviving records (cap chosen above any sampled output;
        // timestamps live outside RequestSpec, so the extraction stamps
        // the ones it is given).
        let arrivals = vec![SimTime::ZERO; requests.len()];
        let back = records_from_timed_requests(&requests, &arrivals);
        let expected: Vec<TraceRecord> = records
            .iter()
            .filter(|r| r.output_len > 0)
            .copied()
            .map(|mut r| {
                r.arrival_us = Some(0);
                r
            })
            .collect();
        prop_assert_eq!(back, expected);
    }

    /// A corrupted row fails parsing with the error located on exactly
    /// that line (1-based, counting the header).
    #[test]
    fn malformed_row_errors_point_at_the_line(
        records in proptest::collection::vec(
            (0u32..10_000, 0u32..10_000).prop_map(|(i, o)| TraceRecord {
                input_len: i,
                output_len: o,
                ..TraceRecord::default()
            }),
            1..40,
        ),
        corrupt_at in 0usize..40,
        kind in 0usize..3,
    ) {
        let corrupt_at = corrupt_at % records.len();
        let mut buffer = Vec::new();
        write_trace_csv(&mut buffer, &records).expect("in-memory write");
        let text = String::from_utf8(buffer).expect("ascii csv");
        let mut lines: Vec<&str> = text.lines().collect();
        let bad = match kind {
            0 => "not-a-number,7",
            1 => "12,minus-three",
            _ => "42", // too few columns
        };
        lines[1 + corrupt_at] = bad;
        let rejoined = lines.join("\n");
        let err = read_trace_csv(rejoined.as_bytes())
            .expect_err("corrupted row must fail");
        prop_assert_eq!(
            err.line,
            corrupt_at + 2,
            "error located at line {} for corruption on line {}: {}",
            err.line,
            corrupt_at + 2,
            err
        );
    }

    /// Column order and extra columns never change what is parsed: a
    /// BurstGPT-style export with shuffled metadata columns reads the
    /// same records.
    #[test]
    fn column_permutations_parse_identically(records in records_strategy()) {
        let mut shuffled = String::from(
            "timestamp,prefix_len,output_len,deadline_us,arrival_us,model,input_len,prefix_id\n",
        );
        for (i, r) in records.iter().enumerate() {
            let prefix_id = r.prefix_id.map_or(String::new(), |id| id.to_string());
            let arrival = r.arrival_us.map_or(String::new(), |t| t.to_string());
            let deadline = r.deadline_us.map_or(String::new(), |t| t.to_string());
            shuffled.push_str(&format!(
                "{}.5,{},{},{},{},m{},{},{}\n",
                i, r.prefix_len, r.output_len, deadline, arrival, i, r.input_len, prefix_id
            ));
        }
        let parsed = read_trace_csv(shuffled.as_bytes()).expect("permuted header");
        prop_assert_eq!(parsed, records);
    }

    /// Dropping the prefix columns entirely (a pre-prefix trace) parses
    /// the same lengths with prefix defaults.
    #[test]
    fn prefix_columns_are_optional(records in records_strategy()) {
        let mut legacy = String::from("input_len,output_len\n");
        for r in &records {
            legacy.push_str(&format!("{},{}\n", r.input_len, r.output_len));
        }
        let parsed = read_trace_csv(legacy.as_bytes()).expect("legacy schema");
        prop_assert_eq!(parsed.len(), records.len());
        for (p, r) in parsed.iter().zip(&records) {
            prop_assert_eq!(p.input_len, r.input_len);
            prop_assert_eq!(p.output_len, r.output_len);
            prop_assert_eq!(p.prefix_id, None);
            prop_assert_eq!(p.prefix_len, 0);
        }
    }
}
