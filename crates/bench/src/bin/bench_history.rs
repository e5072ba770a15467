//! Appends one benchmark run to the durable bench history ledger.
//!
//! `scripts/bench.sh` calls this after `bench_sweep` + `bench_check` so
//! every successful benchmark run leaves a JSONL record — git SHA, date,
//! and the full `BENCH_sweep.json` body, parsed and re-rendered onto one
//! line with its number text kept as written — that performance drift
//! can be diagnosed against long after the working tree has moved on.
//!
//! Usage: `bench_history <BENCH_sweep.json> <history.jsonl> <sha> <date>`
//!
//! The history file is rewritten whole through
//! [`scalesim_trace::write_atomic`] (write-to-temp-then-rename), so a
//! crash mid-append can never truncate or interleave the ledger.

use std::process::ExitCode;

use scalesim_core::JsonValue;

const USAGE: &str = "usage: bench_history <BENCH_sweep.json> <history.jsonl> <sha> <date>";

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [bench_path, history_path, sha, date] = args.as_slice() else {
        return Err(USAGE.to_owned());
    };
    let bench =
        std::fs::read_to_string(bench_path).map_err(|e| format!("read {bench_path}: {e}"))?;
    let bench = match JsonValue::parse(&bench) {
        Ok(doc @ JsonValue::Obj(_)) => doc.to_string(),
        Ok(_) => return Err(format!("{bench_path}: bench report is not a JSON object")),
        Err(e) => return Err(format!("{bench_path}: {e}")),
    };
    if sha.is_empty() || sha.contains(|c: char| c.is_whitespace() || c == '"') {
        return Err(format!("bad sha `{sha}`"));
    }
    if date.is_empty() || date.contains(|c: char| c.is_whitespace() || c == '"') {
        return Err(format!("bad date `{date}`"));
    }

    // Read-modify-write the whole ledger: the tail must survive a crash
    // bit-for-bit, and whole-file atomic replace is the one primitive the
    // repo already trusts for that.
    let mut history = match std::fs::read_to_string(history_path) {
        Ok(s) => s,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
        Err(e) => return Err(format!("read {history_path}: {e}")),
    };
    if !history.is_empty() && !history.ends_with('\n') {
        history.push('\n');
    }
    history.push_str(&format!(
        "{{\"sha\":\"{sha}\",\"date\":\"{date}\",\"bench\":{bench}}}\n"
    ));

    let path = std::path::Path::new(history_path);
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    scalesim_trace::write_atomic(path, &history)
        .map_err(|e| format!("write {history_path}: {e}"))?;
    let lines = history.lines().filter(|l| !l.trim().is_empty()).count();
    println!("{history_path}: appended {sha} ({date}), {lines} runs recorded");
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("bench_history: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_committed_report_renders_as_its_whitespace_stripped_text() {
        let committed = include_str!("../../../../BENCH_sweep.json");
        let stripped: String = committed.split_whitespace().collect();
        let rendered = JsonValue::parse(committed).unwrap().to_string();
        assert_eq!(rendered, stripped);
    }
}
