//! Regenerates the paper's tables and figures from the full pipeline.
//!
//! ```text
//! repro [table2|table3|fig3a|fig3b|fig4a|fig4b|averages|defense|score|all]
//! ```
//!
//! With no argument, prints everything (`all`).

fn main() {
    let what = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    match ij_bench::repro(&what) {
        Some(text) => print!("{text}"),
        None => {
            eprintln!(
                "unknown artifact `{what}`; expected one of: table2 table3 fig3a fig3b fig4a fig4b averages defense score all"
            );
            std::process::exit(2);
        }
    }
}
