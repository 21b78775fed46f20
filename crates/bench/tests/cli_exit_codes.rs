//! End-to-end CLI contract: a misused experiment binary must exit with
//! code 2 (CLI-misuse convention) and print a usage hint, and a
//! configuration the simulation rejects exits with code 1 and names the
//! offending parameter; neither may panic.

use std::process::Command;

#[test]
fn unknown_argument_exits_with_code_2() {
    let output = Command::new(env!("CARGO_BIN_EXE_simulate"))
        .arg("--frobnicate")
        .output()
        .expect("spawn simulate binary");
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("unknown argument"),
        "stderr must name the bad flag: {stderr}"
    );
    assert!(
        stderr.contains("simulate"),
        "stderr must include the usage text: {stderr}"
    );
}

#[test]
fn missing_flag_value_exits_with_code_2() {
    let output = Command::new(env!("CARGO_BIN_EXE_simulate"))
        .args(["--seed"])
        .output()
        .expect("spawn simulate binary");
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("--seed requires"),
        "stderr must name the incomplete flag: {stderr}"
    );
}

#[test]
fn help_exits_cleanly() {
    let output = Command::new(env!("CARGO_BIN_EXE_simulate"))
        .arg("--help")
        .output()
        .expect("spawn simulate binary");
    assert_eq!(output.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("OPTIONS"));
}

#[test]
fn out_of_range_scheduler_parameter_exits_with_code_1() {
    // A reserved fraction of 1 leaves no budget; the simulation refuses
    // it with a typed error naming the parameter instead of panicking.
    let output = Command::new(env!("CARGO_BIN_EXE_simulate"))
        .args([
            "--scheduler",
            "past-future",
            "--param",
            "1.0",
            "--requests",
            "20",
        ])
        .output()
        .expect("spawn simulate binary");
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("reserved_frac"),
        "stderr must name the bad parameter: {stderr}"
    );
}
