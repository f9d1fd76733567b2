//! Regenerates the paper's tables and figures from the full pipeline.
//!
//! ```text
//! repro [table2|table3|fig3a|fig3b|fig4a|fig4b|averages|defense|score|all]
//! ```
//!
//! With no argument, prints everything (`all`).

use ij_bench::{averages, defense, fig3a, fig3b, fig4a, fig4b, full_census, score, table2, table3};

fn main() {
    let what = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    let needs_census = matches!(
        what.as_str(),
        "table2" | "fig3a" | "fig3b" | "fig4a" | "averages" | "all"
    );
    let census = needs_census.then(full_census);
    let census = census.as_ref();

    let print_section = |name: &str, body: String| {
        println!("==== {name} ====");
        println!("{body}");
    };

    match what.as_str() {
        "table2" => print_section("Table 2", table2(census.expect("census"))),
        "table3" => print_section("Table 3", table3()),
        "fig3a" => print_section("Figure 3a", fig3a(census.expect("census"))),
        "fig3b" => print_section("Figure 3b", fig3b(census.expect("census"))),
        "fig4a" => print_section("Figure 4a", fig4a(census.expect("census"))),
        "fig4b" => print_section("Figure 4b", fig4b()),
        "averages" => print_section("Averages", averages(census.expect("census"))),
        "defense" => print_section("Defense", defense()),
        "score" => print_section("Scoring", score()),
        "all" => {
            let census = census.expect("census");
            print_section("Table 2", table2(census));
            print_section("Figure 3a", fig3a(census));
            print_section("Figure 3b", fig3b(census));
            print_section("Figure 4a", fig4a(census));
            print_section("Averages", averages(census));
            print_section("Figure 4b", fig4b());
            print_section("Table 3", table3());
            print_section("Defense ablation", defense());
            print_section("Ground-truth scoring", score());
        }
        other => {
            eprintln!(
                "unknown artifact `{other}`; expected one of: table2 table3 fig3a fig3b fig4a fig4b averages defense score all"
            );
            std::process::exit(2);
        }
    }
}
