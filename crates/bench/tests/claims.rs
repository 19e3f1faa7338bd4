//! Paper-claim assertions: every quantitative statement in the paper's
//! abstract, §I and §V, checked on the data `EXPERIMENTS.md` prints
//! ([`Paper`]), so the record and the claims cannot drift apart.

use pcnna_bench::paper::{best, Fig6Row, Paper};
use pcnna_cnn::zoo;
use pcnna_core::config::{AllocationPolicy, PcnnaConfig};
use pcnna_core::mapping::RingAllocation;
use pcnna_core::Pcnna;
use std::path::Path;
use std::sync::OnceLock;

/// The record, computed once for every test in this file.
fn paper() -> &'static Paper {
    static PAPER: OnceLock<Paper> = OnceLock::new();
    PAPER.get_or_init(|| Paper::compute().expect("the paper design point computes"))
}

/// §V-A: "the first convolutional layer of AlexNet ... will require
/// approximately 5.2 Billion microrings without filtering".
#[test]
fn claim_conv1_unfiltered_5_2_billion() {
    let rings = paper().checks.conv1_unfiltered_rings;
    assert!((5.2e9..5.3e9).contains(&(rings as f64)), "{rings}");
}

/// §V-A: "the same number once non-receptive field values are filtered
/// would be 35 thousand".
#[test]
fn claim_conv1_filtered_35_thousand() {
    let rings = paper().checks.conv1_filtered_rings;
    assert!((34_000..36_000).contains(&rings), "{rings}");
}

/// §V-A: "a saving of more than 150k× in the number microrings".
#[test]
fn claim_150k_saving() {
    assert!(paper().checks.conv1_saving >= 150_000.0);
}

/// §V-A: conv4 "will require 3456 microrings ... it takes an area of
/// 2.2mm² to fit all the microrings" (channel-sequential reading: eq. (5)
/// verbatim weights all `nc` input channels at once, which gives 663k
/// rings with AlexNet's channel grouping and 1.3M without).
#[test]
fn claim_conv4_3456_rings_2_2_mm2() {
    let c = paper().checks;
    assert_eq!(c.conv4_channel_sequential_rings, 3456);
    let area = c.conv4_channel_sequential_mm2;
    assert!((2.1..2.3).contains(&area), "area {area}");
}

/// §V-B eq. (8): "This number for largest layer of AlexNet with a stride
/// of 1 and 10 (NDAC) DACs equals ... ≈ 116".
#[test]
fn claim_equation_8_116_conversions() {
    let c = paper().checks;
    assert_eq!(c.conv4_updates_per_location, 1152);
    assert_eq!(c.conv4_dac_conversions, 116);
}

/// Abstract: "its optical core potentially offer more than 5 order of
/// magnitude speedup compared to state-of-the-art electronic counterparts".
#[test]
fn claim_optical_core_5_orders() {
    let best = best(&paper().fig6, Fig6Row::speedup_o_vs_eyeriss);
    assert!(best > 1e5, "best optical speedup {best}");
}

/// Abstract: "our full system design offers up to more than 3 orders of
/// magnitude speedup in execution time".
#[test]
fn claim_full_system_3_orders() {
    let best = best(&paper().fig6, Fig6Row::speedup_oe_vs_eyeriss);
    assert!(best > 1e3, "best full-system speedup {best}");
}

/// Figure 6 ordering: Eyeriss > YodaNN > PCNNA(O+E) > PCNNA(O) on every
/// layer — the qualitative shape of the paper's chart.
#[test]
fn claim_figure6_ordering_holds_per_layer() {
    let rows = &paper().fig6;
    assert_eq!(rows.len(), 5);
    for r in rows {
        let name = &r.pcnna.name;
        assert!(r.eyeriss > r.yodann, "{name}");
        assert!(r.yodann > r.pcnna.full_system_time, "{name}");
        assert!(r.pcnna.full_system_time > r.pcnna.optical_time, "{name}");
    }
}

/// §V-B: "Tconv in equation 7 is independent of the number of kernels" —
/// and the only cost of more kernels is linearly more rings.
#[test]
fn claim_kernel_scaling() {
    let g = zoo::alexnet_conv_layers()[2].1;
    let g2 = g.with_kernels(2 * g.kernels()).unwrap();
    let accel = Pcnna::new(PcnnaConfig::default()).unwrap();
    let t1 = accel.analytical().optical_time(&g);
    let t2 = accel.analytical().optical_time(&g2);
    assert_eq!(t1, t2);
    let r1 = RingAllocation::for_layer(&g, AllocationPolicy::Filtered).rings;
    let r2 = RingAllocation::for_layer(&g2, AllocationPolicy::Filtered).rings;
    assert_eq!(r2, 2 * r1);
}

/// §I: "Convolution operations account for roughly 90% of the total
/// operations in a CNN".
#[test]
fn claim_convs_dominate_macs() {
    assert!(paper().checks.conv_mac_fraction > 0.88);
}

fn repo_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

/// The committed `EXPERIMENTS.md` is what `render` writes today.
#[test]
fn committed_record_is_current() {
    let committed = std::fs::read_to_string(repo_root().join("EXPERIMENTS.md")).unwrap();
    assert!(
        committed == paper().markdown,
        "the committed record is stale: run `cargo run --release -p pcnna-bench --bin paper`"
    );
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Every source reference to the record names a heading of it. A
/// reference is the file name followed by a space or a comma and then a
/// section name in double or single quotes; a mention directly followed
/// by a backtick or a quote is the file name alone.
#[test]
fn every_cited_section_is_a_heading() {
    let headings: Vec<&str> = paper()
        .markdown
        .lines()
        .filter_map(|l| l.strip_prefix('#'))
        .map(|l| l.trim_start_matches('#').trim())
        .collect();
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        rust_files(&repo_root().join(dir), &mut files);
    }
    let mut cited = Vec::new();
    for path in files {
        let text = std::fs::read_to_string(&path).unwrap();
        for line in text.lines() {
            for (at, _) in line.match_indices("EXPERIMENTS.md") {
                let rest = &line[at + "EXPERIMENTS.md".len()..];
                if !rest.starts_with([' ', ',']) {
                    continue;
                }
                let quoted = rest.trim_start_matches([' ', ',']);
                let name = quoted
                    .chars()
                    .next()
                    .filter(|q| ['"', '\''].contains(q))
                    .and_then(|q| quoted[1..].split(q).next());
                let Some(name) = name else {
                    panic!("{}: {line:?} cites no section", path.display());
                };
                assert!(
                    headings.contains(&name),
                    "{}: {name:?} is no heading of EXPERIMENTS.md",
                    path.display()
                );
                cited.push(name.to_owned());
            }
        }
    }
    for name in [
        "Power reality check",
        "Spectral feasibility",
        "Writeback dominates latency",
        "Scan-order ablation",
        "Analog precision",
        "Max-of-stages bottleneck model",
    ] {
        assert!(cited.iter().any(|c| c == name), "no source cites {name:?}");
    }
}
