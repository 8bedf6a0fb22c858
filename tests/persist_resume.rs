//! Crash-safe resume integration tests for the `slacksim` binary.
//!
//! The central proof is kill-and-resume: a run persisting checkpoints
//! with `--save-state` is SIGKILLed mid-run, resumed from the snapshot
//! it left behind, and — under cycle-by-cycle, where the outcome is
//! engine- and schedule-independent — must finish with a report
//! bit-identical to the same run never having been interrupted. The
//! remaining tests pin the refusal paths: mismatched configuration,
//! truncated files and corrupted bytes all exit with code 2 and a clean
//! `error:` line, never a panic or a silently diverging run.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use slacksim_core::persist;

fn slacksim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_slacksim"))
        .args(args)
        .output()
        .expect("spawn slacksim binary")
}

/// Fresh scratch directory for one test's checkpoint files.
fn scratch_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "slacksim-persist-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// The report lines a resume must reproduce exactly: simulated outcome
/// only, not wall-clock lines.
fn outcome_lines(out: &Output) -> Vec<String> {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter(|l| {
            l.starts_with("execution time")
                || l.starts_with("committed")
                || l.starts_with("CPI")
                || l.starts_with("violations")
        })
        .map(str::to_owned)
        .collect()
}

/// Newest complete `cp-*` snapshot in `dir`, if any.
fn newest_checkpoint(dir: &Path) -> Option<PathBuf> {
    std::fs::read_dir(dir)
        .ok()?
        .flatten()
        .filter(|e| {
            // A `cp-*.tmp` sibling is a write still in flight (or cut
            // short by the kill); only renamed snapshots are complete.
            let name = e.file_name();
            let name = name.to_string_lossy();
            name.starts_with("cp-") && !name.ends_with(".tmp")
        })
        .max_by_key(std::fs::DirEntry::file_name)
        .map(|e| e.path())
}

/// Common flags for one kill-and-resume configuration. Cycle-by-cycle
/// keeps both engines bit-identical and schedule-independent, so the
/// resumed report is comparable across a SIGKILL.
fn config_flags(engine: &str) -> Vec<String> {
    [
        "--scheme",
        "cc",
        "--cores",
        "2",
        "--commit",
        "200000",
        "--checkpoint",
        "700",
        "--engine",
        engine,
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .collect()
}

fn kill_and_resume(engine: &str) {
    let dir = scratch_dir(engine);
    let flags = config_flags(engine);

    let baseline = slacksim(&flags.iter().map(String::as_str).collect::<Vec<_>>());
    assert!(baseline.status.success(), "baseline run exits 0");
    let want = outcome_lines(&baseline);
    assert!(!want.is_empty(), "baseline printed a report");

    // Start the persisting run and SIGKILL it as soon as the first
    // snapshot lands. Atomic rename means an existing cp-* file is
    // always complete, however brutal the kill.
    let mut child = Command::new(env!("CARGO_BIN_EXE_slacksim"))
        .args(&flags)
        .args(["--save-state", dir.to_str().unwrap()])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn persisting run");
    let deadline = Instant::now() + Duration::from_secs(60);
    while newest_checkpoint(&dir).is_none() {
        assert!(
            Instant::now() < deadline,
            "no snapshot appeared within the deadline"
        );
        if child.try_wait().expect("poll child").is_some() {
            break; // finished before we could kill it — still resumable
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let _ = child.kill();
    let _ = child.wait();

    let snapshot = newest_checkpoint(&dir).expect("a snapshot survived the kill");
    let mut resume_flags: Vec<&str> = flags.iter().map(String::as_str).collect();
    let snapshot_str = snapshot.to_str().unwrap();
    resume_flags.extend(["--resume", snapshot_str]);
    let resumed = slacksim(&resume_flags);
    assert!(
        resumed.status.success(),
        "resumed run exits 0: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert_eq!(
        outcome_lines(&resumed),
        want,
        "{engine}: resumed report must be bit-identical to the uninterrupted run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kill_and_resume_matches_uninterrupted_run_sequential() {
    kill_and_resume("seq");
}

#[test]
fn kill_and_resume_matches_uninterrupted_run_threaded() {
    kill_and_resume("threaded");
}

/// Writes one snapshot quickly and returns its path (plus the scratch
/// dir for cleanup).
fn persisted_snapshot(tag: &str) -> (PathBuf, PathBuf) {
    let dir = scratch_dir(tag);
    let out = slacksim(&[
        "--scheme",
        "cc",
        "--cores",
        "2",
        "--commit",
        "5000",
        "--checkpoint",
        "500",
        "--save-state",
        dir.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "persisting run exits 0");
    let snap = newest_checkpoint(&dir).expect("snapshot persisted");
    (dir, snap)
}

fn assert_resume_refused(out: &Output, expect: &str) {
    assert_eq!(
        out.status.code(),
        Some(2),
        "refused resume exits with code 2, stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("error: "),
        "stderr carries an error line, got {err:?}"
    );
    assert!(
        err.contains(expect),
        "stderr mentions {expect:?}, got {err:?}"
    );
}

#[test]
fn resume_with_mismatched_config_is_refused_with_exit_2() {
    let (dir, snap) = persisted_snapshot("mismatch");
    let snap = snap.to_str().unwrap().to_owned();
    // Wrong core count, wrong seed, wrong scheme, wrong checkpoint
    // interval: every divergence from the persisted fingerprint refuses.
    for (scheme, cores, seed, interval) in [
        ("cc", "4", "1", "500"),
        ("cc", "2", "9", "500"),
        ("bounded", "2", "1", "500"),
        ("cc", "2", "1", "900"),
    ] {
        let out = slacksim(&[
            "--scheme",
            scheme,
            "--cores",
            cores,
            "--seed",
            seed,
            "--commit",
            "5000",
            "--checkpoint",
            interval,
            "--resume",
            &snap,
        ]);
        assert_resume_refused(&out, "config mismatch");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_from_truncated_or_corrupted_snapshot_is_refused_cleanly() {
    let (dir, snap) = persisted_snapshot("corrupt");
    let bytes = std::fs::read(&snap).expect("read snapshot");

    let truncated = dir.join("truncated");
    std::fs::write(&truncated, &bytes[..bytes.len() / 2]).unwrap();

    let flipped = dir.join("flipped");
    let mut bad = bytes.clone();
    let last = bad.len() - 1;
    bad[last] ^= 0xff; // payload corruption -> checksum mismatch
    std::fs::write(&flipped, &bad).unwrap();

    let garbage = dir.join("garbage");
    std::fs::write(&garbage, b"not a snapshot at all").unwrap();

    // Version 3 was the retired sharded-manager format: this build reads
    // version 2 only and must say which version it refused.
    let v3 = dir.join("v3");
    let mut old = bytes.clone();
    old[8..12].copy_from_slice(&3u32.to_le_bytes());
    std::fs::write(&v3, &old).unwrap();

    // A well-formed container whose payload carries bytes past the last
    // field (the old optional shard section) is corrupt, not extended.
    let trailing = dir.join("trailing");
    let (fp, payload) = persist::decode_container(&bytes).expect("valid snapshot");
    let mut longer = payload.to_vec();
    longer.extend_from_slice(&1u32.to_le_bytes());
    longer.extend_from_slice(&7u64.to_le_bytes());
    std::fs::write(&trailing, persist::encode_container(fp, &longer)).unwrap();

    for (path, expect) in [
        (&truncated, "truncated"),
        (&flipped, "checksum"),
        (&garbage, "error: "),
        (&v3, "version 3"),
        (&trailing, "corrupt: trailing bytes"),
    ] {
        let out = slacksim(&[
            "--scheme",
            "cc",
            "--cores",
            "2",
            "--commit",
            "5000",
            "--checkpoint",
            "500",
            "--resume",
            path.to_str().unwrap(),
        ]);
        assert_resume_refused(&out, expect);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn save_state_prunes_older_checkpoints() {
    let (dir, snap) = persisted_snapshot("prune");
    let survivors: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with("cp-"))
        .collect();
    assert_eq!(
        survivors.len(),
        1,
        "only the newest checkpoint file is kept"
    );
    assert_eq!(survivors[0].path(), snap);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn threaded_resume_at_commit_zero_reports_the_snapshot_state() {
    // A resumed snapshot already past a zero commit target finishes at
    // once, on every engine, reporting the restored state.
    let (dir, snap) = persisted_snapshot("commit0");
    let resume_at_zero = |engine: &str| {
        let out = slacksim(&[
            "--scheme",
            "cc",
            "--cores",
            "2",
            "--commit",
            "0",
            "--checkpoint",
            "500",
            "--engine",
            engine,
            "--resume",
            snap.to_str().unwrap(),
        ]);
        assert!(out.status.success(), "{engine} resume exits 0");
        outcome_lines(&out)
    };
    let seq = resume_at_zero("seq");
    assert!(
        seq.iter()
            .any(|l| l.starts_with("committed") && !l.contains(": 0 ")),
        "the snapshot's commits are reported: {seq:?}"
    );
    assert_eq!(resume_at_zero("threaded"), seq);
    let _ = std::fs::remove_dir_all(&dir);
}
