//! The behaviour pins: every row of the `ground_truth.stdout_pins` table in
//! `BENCH_corpus.json` runs here and must print what the row records.
//!
//! A row is `<command> | sha1 <hex>` (the SHA-1 of the whole stdout) or
//! `<command> | last line <text>` (its last line). `ij` commands run the
//! binary this package builds; `repro` commands run `ij_bench::repro`, the
//! text the `repro` binary prints. The rows under `release_only` take tens
//! of seconds in a debug build, so only an optimized build runs them (CI
//! runs `cargo test -q --release --test pins`).

use std::path::Path;
use std::process::Command;

/// The quoted rows of the JSON array `"<key>": [` inside the stdout pin
/// table: one string per line, as the table is written.
fn table_rows(table: &str, key: &str) -> Vec<String> {
    let pins = &table[table.find("\"stdout_pins\"").expect("the stdout pin table")..];
    let rows = &pins[pins.find(&format!("\"{key}\": [")).expect(key)..];
    rows.lines()
        .skip(1)
        .map(str::trim)
        .take_while(|line| !line.starts_with(']'))
        .map(|line| {
            let line = line.trim_end_matches(',');
            line.strip_prefix('"')
                .and_then(|l| l.strip_suffix('"'))
                .unwrap_or_else(|| panic!("a quoted row: {line}"))
                .to_string()
        })
        .collect()
}

/// The stdout of one pinned command, run from the repository root.
fn stdout_of(command: &str) -> Vec<u8> {
    let mut words = command.split_whitespace();
    match words.next() {
        Some("ij") => {
            let out = Command::new(env!("CARGO_BIN_EXE_ij"))
                .args(words)
                .current_dir(env!("CARGO_MANIFEST_DIR"))
                .output()
                .expect("run ij");
            assert!(out.status.success(), "`{command}` failed: {out:?}");
            out.stdout
        }
        Some("repro") => {
            let what = words.next().expect("an artifact");
            ij_bench::repro(what)
                .expect("a known artifact")
                .into_bytes()
        }
        _ => panic!("unknown program in `{command}`"),
    }
}

/// Runs every row of `key`, returning the rows that printed something else
/// with what they printed.
fn mismatches(key: &str) -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_corpus.json");
    let table = std::fs::read_to_string(path).expect("read BENCH_corpus.json");
    let rows = table_rows(&table, key);
    assert!(!rows.is_empty(), "no `{key}` rows");
    let mut wrong = Vec::new();
    for row in rows {
        let (command, expected) = row.split_once(" | ").expect("`<command> | <pin>`");
        let stdout = stdout_of(command);
        let got = if let Some(hash) = expected.strip_prefix("sha1 ") {
            (sha1_hex(&stdout) != hash).then(|| sha1_hex(&stdout))
        } else if let Some(line) = expected.strip_prefix("last line ") {
            let text = String::from_utf8(stdout).expect("UTF-8 stdout");
            let last = text.lines().last().unwrap_or_default().to_string();
            (last != line).then_some(last)
        } else {
            panic!("unknown pin `{expected}`")
        };
        if let Some(got) = got {
            wrong.push(format!("`{command}`: expected {expected}, got {got}"));
        }
    }
    wrong
}

#[test]
fn every_pinned_command_prints_its_pinned_output() {
    let wrong = mismatches("rows");
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

#[test]
fn every_release_only_pin_holds_in_an_optimized_build() {
    if cfg!(debug_assertions) {
        eprintln!("release_only pins skipped: debug build");
        return;
    }
    let wrong = mismatches("release_only");
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

/// SHA-1 (FIPS 180-4) of `data`, in lowercase hex: the digest `sha1sum`
/// prints, which the table records.
fn sha1_hex(data: &[u8]) -> String {
    let mut h: [u32; 5] = [
        0x6745_2301,
        0xefcd_ab89,
        0x98ba_dcfe,
        0x1032_5476,
        0xc3d2_e1f0,
    ];
    let mut message = data.to_vec();
    message.push(0x80);
    while message.len() % 64 != 56 {
        message.push(0);
    }
    message.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
    for block in message.chunks_exact(64) {
        let mut w = [0u32; 80];
        for (i, word) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
        }
        for i in 16..80 {
            w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
        }
        let [mut a, mut b, mut c, mut d, mut e] = h;
        for (i, &word) in w.iter().enumerate() {
            let (f, k) = match i {
                0..=19 => ((b & c) | (!b & d), 0x5a82_7999),
                20..=39 => (b ^ c ^ d, 0x6ed9_eba1),
                40..=59 => ((b & c) | (b & d) | (c & d), 0x8f1b_bcdc),
                _ => (b ^ c ^ d, 0xca62_c1d6),
            };
            let t = a
                .rotate_left(5)
                .wrapping_add(f)
                .wrapping_add(e)
                .wrapping_add(k)
                .wrapping_add(word);
            (e, d, c, b, a) = (d, c, b.rotate_left(30), a, t);
        }
        for (state, add) in h.iter_mut().zip([a, b, c, d, e]) {
            *state = state.wrapping_add(add);
        }
    }
    h.iter().map(|word| format!("{word:08x}")).collect()
}

#[test]
fn sha1_matches_the_standard_test_vectors() {
    assert_eq!(sha1_hex(b""), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
    assert_eq!(sha1_hex(b"abc"), "a9993e364706816aba3e25717850c26c9cd0d89d");
    assert_eq!(
        sha1_hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
        "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
    );
    // One block exactly: the padding spills into a second.
    assert_eq!(
        sha1_hex(&[b'a'; 64]),
        "0098ba824b5c16427bd7a1122a5a442a25ec644d"
    );
}
