//! Plot-style text output shared by all experiment binaries: headers,
//! CDF tables and stacked-percentile rows formatted like the paper's
//! figures.

use whisper_net::stats::Cdf;

/// Prints an experiment banner.
pub fn banner(id: &str, what: &str) {
    println!();
    println!("================================================================");
    println!("{id}: {what}");
    println!("================================================================");
}

/// Prints a sub-section header.
pub fn section(title: &str) {
    println!();
    println!("--- {title} ---");
}

/// Prints a CDF as `value fraction` pairs (gnuplot-ready), labelled.
pub fn cdf(label: &str, samples: &Cdf, points: usize) {
    let mut samples = samples.clone();
    if samples.is_empty() {
        println!("{label}: (no samples)");
        return;
    }
    println!(
        "{label}: n={} min={:.4} p25={:.4} median={:.4} p75={:.4} p90={:.4} max={:.4}",
        samples.len(),
        samples.min(),
        samples.percentile(25.0),
        samples.median(),
        samples.percentile(75.0),
        samples.percentile(90.0),
        samples.max(),
    );
    print!("  cdf:");
    for (v, f) in samples.points(points) {
        print!(" ({v:.4},{f:.2})");
    }
    println!();
}

/// Prints a Fig. 8-style stacked-percentile row: p5, p25, p50, p75, p90
/// (`None`: no samples).
pub fn stacked(label: &str, percentiles: Option<[f64; 5]>) {
    let Some([p5, p25, p50, p75, p90]) = percentiles else {
        println!("{label:<26} (no samples)");
        return;
    };
    println!(
        "{label:<26} p5={p5:>10.2} p25={p25:>10.2} p50={p50:>10.2} p75={p75:>10.2} p90={p90:>10.2}"
    );
}

/// Prints a labelled row of numeric columns.
pub fn row(label: &str, values: &[(&str, f64)]) {
    print!("{label:<26}");
    for (name, v) in values {
        print!(" {name}={v:>10.3}");
    }
    println!();
}
