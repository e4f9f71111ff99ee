//! The durability harness: every corruption a filesystem can inflict on
//! a checkpoint must be *rejected at load* with a truthful diagnostic —
//! never a panic, never a silent acceptance, and never a resumed search
//! built on damaged state.
//!
//! The injection point is [`FailpointWriter`], the single seam all
//! checkpoint bytes pass through on their way to disk; the in-memory
//! sweeps go further and try **every** single-bit flip and **every**
//! prefix truncation of a real encoding.

use std::path::PathBuf;

use tpa_check::{
    Checker, Checkpoint, CheckpointError, FailpointWriter, Features, Verdict, WriteFault,
};
use tpa_tso::scripted::{Instr, ScriptSystem};
use tpa_tso::MemoryModel;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "tpa-ckpt-faults-{tag}-{}-{:x}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos())
    ));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn store_buffer() -> ScriptSystem {
    ScriptSystem::new(2, 2, |pid| {
        let me = pid.0;
        vec![
            Instr::Write { var: me, value: 1 },
            Instr::Read {
                var: 1 - me,
                reg: 0,
            },
            Instr::Halt,
        ]
    })
}

/// Interrupts a small search so its checkpoint (with a live frontier and
/// cache) can be damaged. Returns the loaded checkpoint and the scratch
/// dir holding it.
fn real_checkpoint(sys: &ScriptSystem, tag: &str) -> (Checkpoint, PathBuf) {
    let dir = scratch(tag);
    let report = Checker::new(sys)
        .max_steps(24)
        .max_transitions(20)
        .checkpoint_dir(&*dir)
        .exhaustive();
    let Verdict::Incomplete {
        checkpoint: Some(path),
        ..
    } = &report.verdict
    else {
        panic!("a 20-transition budget must interrupt and checkpoint");
    };
    let ckpt = Checkpoint::load(path).expect("undamaged checkpoint loads");
    (ckpt, dir)
}

/// Exhaustive bit-rot sweep: flipping *any single bit* of a real
/// encoding must make `decode` fail — the FNV-1a round per payload byte
/// is a bijection, so no payload flip can slip past the checksum, and
/// every header flip trips magic/version/length/checksum validation.
#[test]
fn every_single_bit_flip_is_rejected() {
    let sys = store_buffer();
    let (ckpt, dir) = real_checkpoint(&sys, "bitflip");
    let bytes = ckpt.encode();
    assert!(bytes.len() > 28, "encoding must have a payload to damage");
    for at in 0..bytes.len() {
        for bit in 0..8u8 {
            let mut damaged = bytes.clone();
            damaged[at] ^= 1 << bit;
            match Checkpoint::decode(&damaged) {
                Err(CheckpointError::Corrupt { .. }) => {}
                Err(other) => panic!("flip of byte {at} bit {bit}: wrong error class: {other}"),
                Ok(_) => panic!("flip of byte {at} bit {bit} was silently accepted"),
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Exhaustive short-write sweep: every proper prefix of a real encoding
/// (a power cut at any byte) must fail to decode, with the diagnostic
/// carrying a real offset into the file.
#[test]
fn every_prefix_truncation_is_rejected() {
    let sys = store_buffer();
    let (ckpt, dir) = real_checkpoint(&sys, "truncate");
    let bytes = ckpt.encode();
    for n in 0..bytes.len() {
        match Checkpoint::decode(&bytes[..n]) {
            Err(CheckpointError::Corrupt { offset, .. }) => {
                assert!(
                    offset <= n,
                    "prefix {n}: diagnostic points past the file ({offset})"
                );
            }
            Err(other) => panic!("prefix {n}: wrong error class: {other}"),
            Ok(_) => panic!("prefix of {n} bytes was silently accepted"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A trailing byte (an interrupted overwrite of a longer file) is caught
/// by the header's payload length before any section is trusted.
#[test]
fn trailing_garbage_is_rejected() {
    let sys = store_buffer();
    let (ckpt, dir) = real_checkpoint(&sys, "trailer");
    let mut bytes = ckpt.encode();
    bytes.push(0);
    let err = Checkpoint::decode(&bytes).expect_err("trailing byte must be rejected");
    assert!(
        err.to_string().contains("torn write"),
        "diagnostic should name the failure mode: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `FailpointWriter` fault classes end-to-end: damage on the way to
/// disk, then `load` must reject with a `Corrupt` diagnostic that names
/// a byte offset. Every fault here is guaranteed to change bytes (the
/// magic and the checksum are never zero; a bit flip always flips).
#[test]
fn injected_write_faults_are_rejected_at_load() {
    let sys = store_buffer();
    let (ckpt, dir) = real_checkpoint(&sys, "failpoint");
    let len = ckpt.encode().len();
    let faults: Vec<(WriteFault, &str)> = vec![
        (WriteFault::Truncate(0), "power cut before anything"),
        (WriteFault::Truncate(7), "power cut inside the magic"),
        (WriteFault::Truncate(27), "power cut inside the header"),
        (WriteFault::Truncate(len / 2), "power cut mid-payload"),
        (WriteFault::Truncate(len - 1), "power cut on the last byte"),
        (
            WriteFault::Zero { offset: 0, len: 8 },
            "torn write over the magic",
        ),
        (
            WriteFault::Zero { offset: 20, len: 8 },
            "torn write over the checksum",
        ),
        (
            WriteFault::BitFlip { offset: 9, bit: 1 },
            "bit rot in the version",
        ),
        (
            WriteFault::BitFlip {
                offset: len - 1,
                bit: 7,
            },
            "bit rot in the last payload byte",
        ),
    ];
    for (fault, what) in faults {
        let path = dir.join("damaged.tpack");
        ckpt.save_with(&path, &FailpointWriter::faulty(fault.clone()))
            .expect("the write itself succeeds; the damage is in the bytes");
        match Checkpoint::load(&path) {
            Err(CheckpointError::Corrupt { detail, .. }) => {
                assert!(!detail.is_empty(), "{what}: empty diagnostic");
            }
            Err(other) => panic!("{what} ({fault:?}): wrong error class: {other}"),
            Ok(_) => panic!("{what} ({fault:?}) was silently accepted"),
        }
        // And the high-level entry point, configured as the writer was,
        // surfaces the same refusal.
        let resumed = Checker::new(&sys).max_steps(24).resume(&path);
        assert!(
            matches!(resumed, Err(CheckpointError::Corrupt { .. })),
            "{what}: Checker::resume did not refuse a damaged checkpoint as corrupt"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// An undamaged round trip through the same writer is the control: the
/// failpoint seam itself must not corrupt anything.
#[test]
fn faultless_writer_round_trips() {
    let sys = store_buffer();
    let (ckpt, dir) = real_checkpoint(&sys, "control");
    let path = dir.join("clean.tpack");
    ckpt.save_with(&path, &FailpointWriter::default())
        .expect("clean write");
    let back = Checkpoint::load(&path).expect("clean load");
    assert_eq!(back.encode(), ckpt.encode(), "round trip changed bytes");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A stale checkpoint: the program changed (same system name, same
/// shape, different instructions) since the snapshot was taken. The
/// initial states are equal, since a script's state hash covers its
/// program counter, registers and halt flag but not its instructions,
/// so the initial-state hash cannot see the edit. The fingerprint's bytecode
/// hash catches it, and the diagnostic says so — resuming would silently
/// verify the *old* program.
#[test]
fn stale_program_is_incompatible() {
    let sys = store_buffer();
    let (_, dir) = real_checkpoint(&sys, "stale");
    let path = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|x| x == "tpack"))
        .expect("checkpoint written");
    // Same name and process count, different initial writes.
    let evolved = ScriptSystem::new(2, 2, |pid| {
        let me = pid.0;
        vec![
            Instr::Write { var: me, value: 2 },
            Instr::Read {
                var: 1 - me,
                reg: 0,
            },
            Instr::Halt,
        ]
    });
    let err = Checker::new(&evolved)
        .max_steps(24)
        .resume(&path)
        .expect_err("a stale checkpoint must be refused");
    let CheckpointError::Incompatible(msg) = &err else {
        panic!("wrong error class: {err}");
    };
    assert!(
        msg.contains("the compiled bytecode hash differs") && msg.contains("stale checkpoint"),
        "diagnostic should name the bytecode hash and say the checkpoint is stale: {msg}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A foreign checkpoint: different process count. Refused on the
/// fingerprint, not on a decode error — the file itself is intact.
#[test]
fn foreign_shape_is_incompatible() {
    let sys = store_buffer();
    let (_, dir) = real_checkpoint(&sys, "foreign");
    let path = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|x| x == "tpack"))
        .expect("checkpoint written");
    let wider = ScriptSystem::new(3, 3, |pid| {
        vec![
            Instr::Write {
                var: pid.0,
                value: 1,
            },
            Instr::Halt,
        ]
    });
    let err = Checker::new(&wider)
        .max_steps(24)
        .resume(&path)
        .expect_err("a foreign checkpoint must be refused");
    assert!(
        matches!(err, CheckpointError::Incompatible(_)),
        "wrong error class: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A mismatched invariant battery: the checkpoint names the batteries it
/// was searching under; resuming with a different set would change what
/// is being verified mid-search.
#[test]
fn mismatched_battery_is_incompatible() {
    use tpa_check::{Invariant, Violation};
    struct Nothing;
    impl Invariant for Nothing {
        fn name(&self) -> &'static str {
            "nothing-ever"
        }
        fn check(&self, _: &tpa_tso::Machine) -> Option<Violation> {
            None
        }
    }
    let sys = store_buffer();
    let (_, dir) = real_checkpoint(&sys, "battery");
    let path = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|x| x == "tpack"))
        .expect("checkpoint written");
    let err = Checker::new(&sys)
        .max_steps(24)
        .invariants(vec![Box::new(Nothing)])
        .resume(&path)
        .expect_err("a different battery must be refused");
    let CheckpointError::Incompatible(msg) = &err else {
        panic!("wrong error class: {err}");
    };
    assert!(
        msg.starts_with("invariant battery"),
        "diagnostic should name the battery mismatch: {msg}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The checker's settings are the only configuration: a checkpoint is
/// verified against them, never adopted. A checker that differs from
/// the writer in one configured field — memory model, step bound, crash
/// budget, execution or state keys — is refused with that field named
/// (the battery is `mismatched_battery_is_incompatible`'s case), and
/// the writer's own configuration, the control, resumes.
#[test]
fn each_configured_field_is_verified_not_adopted() {
    let sys = store_buffer();
    let (ckpt, dir) = real_checkpoint(&sys, "identity");
    let _ = std::fs::remove_dir_all(&dir);
    let writer = || Checker::new(&sys).max_steps(24);
    assert!(
        writer().resume_from(&ckpt).is_ok(),
        "the writer's configuration must resume its checkpoint"
    );
    let changed: [(&str, Checker); 5] = [
        ("memory model", writer().model(MemoryModel::Pso)),
        ("max_steps", writer().max_steps(25)),
        ("max_crashes", writer().max_crashes(1)),
        (
            "execution",
            writer().features(Features::default().compiled()),
        ),
        (
            "state keys",
            writer().features(Features::default().canonical()),
        ),
    ];
    for (field, checker) in changed {
        match checker.resume_from(&ckpt) {
            Err(CheckpointError::Incompatible(msg)) => {
                assert!(msg.starts_with(field), "{field}: {msg}");
            }
            Err(other) => panic!("{field}: wrong error class: {other}"),
            Ok(report) => panic!(
                "{field} changed, yet the checkpoint resumed to {:?}",
                report.verdict
            ),
        }
    }
}

/// Loading a file that is not there, or not a checkpoint at all, is an
/// error with the path in it — never a panic.
#[test]
fn missing_and_alien_files_error_cleanly() {
    let dir = scratch("alien");
    let missing = dir.join("never-written.tpack");
    let err = Checkpoint::load(&missing).expect_err("missing file");
    assert!(
        matches!(err, CheckpointError::Io(_)),
        "missing file should be an I/O error: {err}"
    );
    assert!(
        err.to_string().contains("never-written.tpack"),
        "diagnostic should carry the path: {err}"
    );
    let alien = dir.join("alien.tpack");
    std::fs::write(
        &alien,
        b"{\"definitely\": \"not a checkpoint file at all\"}\n",
    )
    .unwrap();
    let err = Checkpoint::load(&alien).expect_err("alien file");
    assert!(
        err.to_string().contains("bad magic"),
        "diagnostic should say this is not a checkpoint: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
