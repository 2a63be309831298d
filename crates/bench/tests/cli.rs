//! The command-line contract of the one `bench` binary: a bad command
//! line is exit 2 and writes nothing, a run writes under `target/bench/`
//! and never to a committed file, a golden mismatch is exit 1 with the
//! byte offset.

use bench::args::root;
use bench::golden::GOLDENS;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bench")).args(args).output().expect("bench runs")
}

fn tmp(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn bad_command_lines_exit_2_name_the_culprit_and_write_nothing() {
    let out = tmp("cli-bad");
    let out_dir = out.to_str().unwrap();
    for (line, culprit) in [
        ("serve --smoke --smok", "--smok"),
        ("serve --smoke --seed", "--seed"),
        ("retry --smoke --seed forty-two", "--seed"),
        ("table1 --data-scale 0", "--data-scale"),
        ("verify --workload bank --variant hv-sorting --blocks 0", "--blocks"),
        ("verify --workload bank --variant hv-sorting --warps 0", "--warps"),
        ("verify --workload bank --variant hv-sorting --warps 33", "--warps"),
        ("verify --workload bank --variant hv-sorting --blocks 4000000000 --warps 32", "--blocks"),
        ("verify --workload bank --variant hv-sorting --blocks 8161 --warps 2", "--blocks"),
        ("verify --workload bank --variant hv-sorting --blocks 5000000000", "--blocks"),
        ("verify --workload bank --mutant late_commit", "--mutant"),
        ("fig2 --only nosuch", "--only"),
        ("report --threads 64 --bless", "--bless"),
        ("nosuch --smoke", "nosuch"),
        ("--smoke", "subcommand"),
    ] {
        let mut args: Vec<&str> = line.split(' ').collect();
        args.extend(["--out", out_dir]);
        let run = bench(&args);
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "`{line}`: {stderr}");
        assert!(stderr.contains(culprit), "`{line}` should name `{culprit}`: {stderr}");
        assert!(!out.exists(), "`{line}` wrote to {out_dir}");
    }
}

#[test]
fn a_run_writes_under_target_bench_and_touches_no_committed_file() {
    let committed = || -> Vec<_> {
        GOLDENS
            .iter()
            .map(|(name, _)| {
                let path = root().join(name);
                (std::fs::read(&path).unwrap(), path.metadata().unwrap().modified().unwrap())
            })
            .collect()
    };
    let before = committed();
    let run = bench(&["serve", "--smoke"]);
    assert!(run.status.success(), "{}", String::from_utf8_lossy(&run.stderr));
    assert_eq!(before, committed(), "a run without --bless changed a committed golden");
    let written = std::fs::read(root().join("target/bench/BENCH_serve.json")).unwrap();
    assert_eq!(written, before[0].0, "the artifact is the golden's bytes");
}

#[test]
fn a_corrupted_golden_is_exit_1_with_the_byte_offset() {
    let checkout = tmp("cli-corrupt");
    for (name, _) in GOLDENS {
        let to = checkout.join(name);
        std::fs::create_dir_all(to.parent().unwrap()).unwrap();
        std::fs::copy(root().join(name), to).unwrap();
    }
    let victim = checkout.join("BENCH_retry.json");
    let mut bytes = std::fs::read(&victim).unwrap();
    bytes[1234] ^= 1;
    std::fs::write(&victim, bytes).unwrap();

    let out = checkout.join("out");
    let run = bench(&["check", checkout.to_str().unwrap(), "--out", out.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("BENCH_retry.json differs from this run at byte 1234 "), "{stderr}");
    assert!(stderr.contains("1 of 10 goldens do not match"), "{stderr}");
    assert!(out.join("BENCH_retry.json").exists(), "check leaves its renderings in --out");
}

/// Explores `litmus` until its first finding and writes the minimized
/// witness to `path`.
fn write_witness(litmus: tm_verify::Litmus, path: &Path) -> String {
    let mut model = tm_verify::Model::new(litmus);
    let report = model.explore(2, 5000, true);
    let finding = report.findings.first().expect("the mutant is killed");
    let min = model.minimize(finding);
    let text = model.to_sched(finding, &min);
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(path, &text).unwrap();
    text
}

#[test]
fn a_written_lost_wakeup_witness_replays_from_the_file_alone() {
    use tm_verify::{Litmus, Workload};
    let mut litmus = Litmus::new(Workload::Queue, workloads::Variant::HvSorting, 1, 2);
    litmus.blocking = gpu_stm::BlockingMutation { lost_wakeup: true };
    let path = tmp("cli-lost-wakeup").join("queue-lost-wakeup.sched");
    let text = write_witness(litmus, &path);
    assert!(text.contains("meta blocking lost_wakeup=true\n"), "{text}");

    let run = bench(&["verify", "--replay", path.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert_eq!(run.status.code(), Some(0), "{stdout}{}", String::from_utf8_lossy(&run.stderr));
    assert!(stdout.contains("reproduced: deadlock"), "{stdout}");
}

#[test]
fn a_witness_with_impossible_metadata_is_exit_1_naming_the_key() {
    let mut litmus =
        tm_verify::Litmus::new(tm_verify::Workload::Bank, workloads::Variant::HvSorting, 1, 2);
    litmus.mutation = gpu_stm::Mutation { unsorted_locks: true, ..Default::default() };
    let dir = tmp("cli-bad-meta");
    let text = write_witness(litmus, &dir.join("good.sched"));
    let good = bench(&["verify", "--replay", dir.join("good.sched").to_str().unwrap()]);
    assert_eq!(good.status.code(), Some(0), "{}", String::from_utf8_lossy(&good.stderr));

    for (from, to, key) in [
        ("meta blocks 1\n", "meta blocks 0\n", "meta blocks"),
        ("meta warps_per_block 2\n", "meta warps_per_block 33\n", "meta warps_per_block"),
        ("meta blocks 1\n", "meta blocks 4000000000\n", "meta blocks"),
        ("meta violation livelock\n", "meta violation hang\n", "meta violation"),
        ("unsorted_locks=true", "unsorted_locks=maybe", "meta mutation"),
        ("lost_wakeup=false", "lost_wakeup", "meta blocking"),
    ] {
        assert!(text.contains(from), "{from:?} not in\n{text}");
        let bad = dir.join("bad.sched");
        std::fs::write(&bad, text.replace(from, to)).unwrap();
        let run = bench(&["verify", "--replay", bad.to_str().unwrap()]);
        let (stdout, stderr) =
            (String::from_utf8_lossy(&run.stdout), String::from_utf8_lossy(&run.stderr));
        assert_eq!(run.status.code(), Some(1), "{to:?}: {stdout}{stderr}");
        assert!(stderr.contains(key), "{to:?} should name `{key}`: {stderr}");
        assert!(!stdout.contains("reproduced"), "{to:?}: {stdout}");
    }
}
