//! Bad command lines are usage errors — message on stderr, exit status 2 —
//! never panics.

use std::process::Command;

fn exit_code(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin)
        .args(args)
        .output()
        .expect("spawn the binary under test");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn attack_and_client_reject_bad_argv_with_exit_2() {
    let bins = [
        env!("CARGO_BIN_EXE_attack"),
        env!("CARGO_BIN_EXE_calibre-client"),
    ];
    let cases: [&[&str]; 3] = [&["--bogus"], &["--bogus", "1"], &["--seed", "x"]];
    for bin in bins {
        for args in cases {
            let (code, stderr) = exit_code(bin, args);
            assert_eq!(code, Some(2), "{bin} {args:?}: {stderr}");
            assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
            assert!(!stderr.trim().is_empty(), "{bin} {args:?}: no message");
        }
    }
    let (code, stderr) = exit_code(env!("CARGO_BIN_EXE_calibre-client"), &["--client", "one"]);
    assert_eq!(code, Some(2), "{stderr}");
    let (code, stderr) = exit_code(env!("CARGO_BIN_EXE_attack"), &["--fractions", "0.1,x"]);
    assert_eq!(code, Some(2), "{stderr}");
}
