//! TAB1/TAB2 — The §III-A rank-list table and the footnote example.
//!
//! Regenerates, exactly, the table:
//!
//! ```text
//! Index  Window               Rank list
//! 1      (3, 1, 4, 1, 5, 9)   (3, 1, 4, 2, 5, 6)
//! 2      (1, 4, 1, 5, 9, 2)   (1, 4, 2, 5, 6, 3)
//! 3      (4, 1, 5, 9, 2, 6)   (3, 1, 4, 6, 2, 5)
//! ```

use rap_bench::banner;
use rap_bench::cli::BenchCli;
use rap_ope::reference::{rank_list, windows_ranked};

fn main() {
    // already instant; --quick is accepted for CLI uniformity
    let cli = BenchCli::parse("table_ranklists", None);
    rap_bench::trace::with_trace(&cli, run);
}

fn run() {
    banner("§III-A — OPE example: stream (3,1,4,1,5,9,2,6), window size N = 6");
    let stream: Vec<u16> = vec![3, 1, 4, 1, 5, 9, 2, 6];
    println!("Index  Window                Rank list");
    for (i, (window, ranks)) in stream
        .windows(6)
        .zip(windows_ranked(&stream, 6))
        .enumerate()
    {
        println!("{:<6} {:<21} {}", i + 1, tuple(window), tuple(&ranks));
    }

    println!(
        "\nfootnote: ranks of items in the list (2, 0, 1, 7) are {}",
        tuple(&rank_list(&[2, 0, 1, 7]))
    );

    // cross-check all three engines on the same stream
    let reference = rap_ope::pipeline::reference_stream(6, &stream);
    let mut inc = rap_ope::incremental::IncrementalOpe::new(6);
    let incremental: Vec<u16> = stream.iter().filter_map(|&x| inc.push(x)).collect();
    let mut pipe = rap_ope::PipelinedOpe::new(6);
    let pipelined = pipe.encode_stream(&stream);
    println!("\nnewest-item ranks  (reference):   {reference:?}");
    println!("newest-item ranks  (incremental): {incremental:?}");
    println!("newest-item ranks  (pipelined):   {pipelined:?}");
    assert_eq!(reference, incremental);
    assert_eq!(reference, pipelined);
    println!("\nall three encoder implementations agree.");
}

fn tuple(xs: &[u16]) -> String {
    format!(
        "({})",
        xs.iter().map(u16::to_string).collect::<Vec<_>>().join(", ")
    )
}
