//! Runs every table/figure experiment in sequence and prints each.
//! `scripts/paper_tables.sh` pastes the full output into `EXPERIMENTS.md`;
//! `--quick` (the smoke-test variants) is `scripts/golden/figures_quick.txt`.

use whisper_bench::experiments::{self, *};

fn main() {
    let quick = experiments::quick_flag();
    macro_rules! go {
        ($m:ident) => {
            if quick {
                $m::run(&$m::Params::quick())
            } else {
                $m::run(&$m::Params::paper())
            }
        };
    }
    go!(fig5).print();
    go!(fig6).print();
    go!(table1).print();
    go!(fig7).print();
    go!(table2).print();
    go!(fig8).print();
    go!(fig9).print();
    go!(ablation_path_length).print();
    go!(ablation_cb_size).print();
}
