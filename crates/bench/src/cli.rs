//! Command-line parsing shared by every experiment binary.
//!
//! All binaries accept `--quick` and `--out <dir>`; binaries with extra
//! options (e.g. `sweep --seeds <n>`) layer them on top via
//! [`Cli::try_parse_extra`] so the common flags behave identically
//! everywhere.

use std::path::PathBuf;

/// Command-line options shared by all experiment binaries.
#[derive(Debug, Clone)]
pub struct Cli {
    /// Reduced workload sizes for smoke runs.
    pub quick: bool,
    /// Output directory for CSV/markdown artifacts.
    pub out_dir: PathBuf,
}

/// Usage text printed on argument errors.
const USAGE: &str = "usage: <binary> [--quick] [--out <dir> | --out=<dir>]\n\
     --quick      reduced workload sizes for smoke runs\n\
     --out <dir>  output directory for CSV/markdown artifacts (default: results)";

impl Cli {
    /// Parses `--quick` and `--out <dir>` / `--out=<dir>` from
    /// `std::env::args`. Unknown or malformed arguments print the usage
    /// to stderr and exit with code 2 (the conventional CLI-misuse
    /// status), so a typo in a CI pipeline fails fast instead of
    /// panicking with a backtrace.
    pub fn parse() -> Cli {
        match Cli::try_parse(std::env::args().skip(1)) {
            Ok(cli) => cli,
            Err(message) => exit_usage(&message),
        }
    }

    /// [`Cli::parse`] plus binary-specific `--flag <value>` options.
    ///
    /// `extra_value_flags` lists flag names (with leading dashes) that
    /// take one value, accepted as either `--flag value` or
    /// `--flag=value`. Returns the parsed common options and the
    /// `(flag, value)` pairs in argument order. Errors exit with code 2
    /// like [`Cli::parse`].
    pub fn parse_extra(extra_value_flags: &[&str]) -> (Cli, Vec<(String, String)>) {
        match Cli::try_parse_extra(std::env::args().skip(1), extra_value_flags) {
            Ok(parsed) => parsed,
            Err(message) => exit_usage(&message),
        }
    }

    /// Argument-parsing core, separated from process exit for testing.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown arguments or a
    /// missing `--out` value.
    pub fn try_parse(args: impl IntoIterator<Item = String>) -> Result<Cli, String> {
        let (cli, extra) = Cli::try_parse_extra(args, &[])?;
        debug_assert!(extra.is_empty());
        Ok(cli)
    }

    /// [`Cli::try_parse`] with binary-specific value flags, separated
    /// from process exit for testing.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown arguments or a flag
    /// missing its value.
    pub fn try_parse_extra(
        args: impl IntoIterator<Item = String>,
        extra_value_flags: &[&str],
    ) -> Result<(Cli, Vec<(String, String)>), String> {
        let mut quick = false;
        let mut out_dir = PathBuf::from("results");
        let mut extra = Vec::new();
        let mut args = args.into_iter();
        'next_arg: while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => quick = true,
                "--out" => {
                    out_dir = PathBuf::from(
                        args.next()
                            .ok_or_else(|| "--out requires a directory argument".to_string())?,
                    );
                }
                other => {
                    if let Some(dir) = other.strip_prefix("--out=") {
                        if dir.is_empty() {
                            return Err("--out= requires a directory argument".to_string());
                        }
                        out_dir = PathBuf::from(dir);
                        continue;
                    }
                    for flag in extra_value_flags {
                        if other == *flag {
                            let value = args
                                .next()
                                .ok_or_else(|| format!("{flag} requires a value"))?;
                            extra.push(((*flag).to_string(), value));
                            continue 'next_arg;
                        }
                        if let Some(value) = other
                            .strip_prefix(flag)
                            .and_then(|rest| rest.strip_prefix('='))
                        {
                            if value.is_empty() {
                                return Err(format!("{flag}= requires a value"));
                            }
                            extra.push(((*flag).to_string(), value.to_string()));
                            continue 'next_arg;
                        }
                    }
                    return Err(format!("unknown argument: {other}"));
                }
            }
        }
        Ok((Cli { quick, out_dir }, extra))
    }

    /// Picks between the full and quick size of a workload parameter.
    pub fn size(&self, full: usize, quick: usize) -> usize {
        if self.quick {
            quick
        } else {
            full
        }
    }

    /// Writes a table as `<name>.csv` and `<name>.md` under the output
    /// directory and prints it to stdout with a heading.
    ///
    /// # Panics
    ///
    /// Panics if the output directory cannot be created or written.
    pub fn emit(&self, name: &str, title: &str, table: &pf_metrics::Table) {
        println!("== {title} ==");
        println!("{}", table.to_text());
        crate::write_artifacts(&self.out_dir, name, table);
        println!("[wrote {}/{name}.csv and .md]\n", self.out_dir.display());
    }
}

fn exit_usage(message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        Cli::try_parse(args.iter().map(|s| s.to_string()))
    }

    fn parse_extra(args: &[&str], flags: &[&str]) -> Result<(Cli, Vec<(String, String)>), String> {
        Cli::try_parse_extra(args.iter().map(|s| s.to_string()), flags)
    }

    #[test]
    fn cli_parses_flags_and_both_out_forms() {
        let cli = parse(&[]).unwrap();
        assert!(!cli.quick);
        assert_eq!(cli.out_dir, PathBuf::from("results"));
        let cli = parse(&["--quick", "--out", "artifacts"]).unwrap();
        assert!(cli.quick);
        assert_eq!(cli.out_dir, PathBuf::from("artifacts"));
        let cli = parse(&["--out=elsewhere"]).unwrap();
        assert_eq!(cli.out_dir, PathBuf::from("elsewhere"));
    }

    #[test]
    fn cli_rejects_bad_arguments_with_messages() {
        assert!(parse(&["--frobnicate"])
            .unwrap_err()
            .contains("unknown argument: --frobnicate"));
        assert!(parse(&["--out"]).unwrap_err().contains("--out requires"));
        assert!(parse(&["--out="]).unwrap_err().contains("--out= requires"));
    }

    #[test]
    fn extra_value_flags_accept_both_forms() {
        let (cli, extra) = parse_extra(&["--gate", "base.json", "--quick"], &["--gate"]).unwrap();
        assert!(cli.quick);
        assert_eq!(extra, vec![("--gate".to_string(), "base.json".to_string())]);
        let (_, extra) = parse_extra(&["--gate=base.json"], &["--gate"]).unwrap();
        assert_eq!(extra, vec![("--gate".to_string(), "base.json".to_string())]);
    }

    #[test]
    fn extra_value_flags_report_missing_values() {
        assert!(parse_extra(&["--gate"], &["--gate"])
            .unwrap_err()
            .contains("--gate requires"));
        assert!(parse_extra(&["--gate="], &["--gate"])
            .unwrap_err()
            .contains("--gate= requires"));
        assert!(parse_extra(&["--gatecrash"], &["--gate"])
            .unwrap_err()
            .contains("unknown argument"));
    }
}
