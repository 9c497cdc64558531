//! End-to-end checks of the `loadgen` binary: every tier finishes a
//! small conservation-gated run, flags are checked against the tier, and
//! a live scale script reshards the in-process service.

use std::process::{Command, Output};

fn loadgen(args: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_loadgen")).args(args.split_whitespace()).output().expect("run loadgen")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn every_tier_finishes_a_small_run() {
    for (tier, extra) in [("service", ""), ("net", "--frontend reactor"), ("gateway", "--nodes 2")] {
        let out = loadgen(&format!("--tier {tier} {extra} --requests 200 --clients 2 --window 8"));
        let text = stdout(&out);
        assert_eq!(out.status.code(), Some(0), "{tier}: {text}\n{}", String::from_utf8_lossy(&out.stderr));
        assert!(text.starts_with(&format!("loadgen[tier={tier} ")), "{tier}: {text}");
        assert!(text.contains("conservation: OK"), "{tier}: {text}");
    }
}

#[test]
fn a_flag_of_another_tier_exits_2() {
    for args in [
        "--tier service --nodes 2",
        "--tier service --frontend reactor",
        "--tier gateway --scale-script 100:3",
        "--tier net --compare-baseline --plan-cache",
        "--tier net --peer",
    ] {
        let out = loadgen(args);
        assert_eq!(out.status.code(), Some(2), "{args}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("has no effect"), "{args}");
    }
    for args in ["--tier bus", "--requests", "--min-speedup 1.1 --plan-cache", "--tier net --window 0"] {
        assert_eq!(loadgen(args).status.code(), Some(2), "{args}");
    }
}

#[test]
fn help_exits_0() {
    let out = loadgen("--help");
    assert_eq!(out.status.code(), Some(0));
    assert!(stdout(&out).contains("--tier"));
}

/// The offered count a `reshard:` line says its step fired at.
fn fired_at(line: &str) -> u64 {
    let before = line.split(" offered").next().expect("reshard line");
    before.rsplit(' ').next().and_then(|n| n.parse().ok()).unwrap_or_else(|| panic!("no count in {line}"))
}

#[test]
fn scale_script_reshards_the_live_service() {
    // Grow and shrink mid-stream, then once more after the last submit,
    // against the loaded fleet right before drain. The stream is long
    // enough that the control thread's polling lands the first two
    // steps well before the last submit.
    let out = loadgen("--tier service --shards 4 --scale-script 100:8,250:2,4000:3 --requests 4000");
    let text = stdout(&out);
    assert_eq!(out.status.code(), Some(0), "{text}");
    let reshards: Vec<_> = text.lines().filter(|l| l.starts_with("reshard:")).collect();
    assert_eq!(reshards.len(), 3, "{text}");
    assert!(reshards[0].starts_with("reshard: 4 -> 8 shards"), "{text}");
    assert!(reshards[1].starts_with("reshard: 8 -> 2 shards"), "{text}");
    assert!(
        reshards[2].starts_with("reshard: 2 -> 3 shards") && reshards[2].ends_with("(generation 3)"),
        "{text}"
    );
    let fired: Vec<u64> = reshards.iter().map(|l| fired_at(l)).collect();
    assert!((100..4000).contains(&fired[0]) && (250..4000).contains(&fired[1]), "{fired:?}\n{text}");
    assert_eq!(fired[2], 4000, "{text}");
}
