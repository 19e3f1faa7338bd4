//! The paper record: Table I, Figs. 2–6 and the reproduction findings.
//!
//! [`Paper::compute`] runs every model once and renders the Markdown of
//! `EXPERIMENTS.md` (the `paper` bin writes it, CI diffs it), one section
//! per artifact and per finding. It keeps the numbers the paper states
//! ([`InlineChecks`], [`Fig6Row`]) as data beside the Markdown that prints
//! them, and the claim tests in `crates/bench/tests/claims.rs` assert on
//! that data, so the document and the claims cannot drift apart. Where
//! the paper states a number, the record prints it in a *paper* column
//! beside the reproduced one.

use crate::feasibility;
use crate::report::{section, table};
use pcnna_baselines::{AcceleratorModel, Eyeriss, YodaNn};
use pcnna_cnn::geometry::ConvGeometry;
use pcnna_cnn::stats::network_stats;
use pcnna_cnn::workload::Workload;
use pcnna_cnn::zoo;
use pcnna_core::accel::{NetworkLayerRow, Pcnna};
use pcnna_core::config::{AllocationPolicy, BottleneckModel, PcnnaConfig, ScanOrder};
use pcnna_core::execution::ExecutionModel;
use pcnna_core::functional::{FunctionalOptions, PhotonicConvExecutor};
use pcnna_core::mapping::{figure5, AreaModel, RingAllocation};
use pcnna_core::power::{PowerAssumptions, PowerModel};
use pcnna_core::scheduler::LocationSchedule;
use pcnna_core::simulator::PipelineSimulator;
use pcnna_core::tiling::{TileConstraints, TilingPlanner};
use pcnna_core::CoreError;
use pcnna_electronics::clock::ClockDomain;
use pcnna_electronics::time::SimTime;
use pcnna_photonics::microring::RingParams;
use pcnna_photonics::thermal::ThermalModel;
use pcnna_photonics::wavelength::WdmGrid;
use pcnna_photonics::weight_bank::MrrWeightBank;

/// A network's named conv layers.
type Layers = [(&'static str, ConvGeometry)];

const HEADER: &str = "# EXPERIMENTS — the PCNNA reproduction record\n\n\
    Generated by `cargo run --release -p pcnna-bench --bin paper`; do not edit by \
    hand. CI regenerates this file and fails on any difference. Every table is the \
    paper's design point (AlexNet, 10 input DACs at 6 GSa/s, a 5 GHz fast clock, an \
    8192-word SRAM, filtered allocation) unless its section says otherwise. Where the \
    paper states a number, it sits in a *paper* column beside the reproduced one.\n\n";

/// One row of the Figure 6 comparison.
#[derive(Debug, Clone)]
pub struct Fig6Row {
    /// Eyeriss-like execution time.
    pub eyeriss: SimTime,
    /// YodaNN-like execution time.
    pub yodann: SimTime,
    /// The PCNNA analytical row: optical (O) and full-system (O+E) times,
    /// the bound stage and the eq. (8) detail.
    pub pcnna: NetworkLayerRow,
}

impl Fig6Row {
    /// Speedup of the full PCNNA system over Eyeriss.
    #[must_use]
    pub fn speedup_oe_vs_eyeriss(&self) -> f64 {
        self.eyeriss.ratio(self.pcnna.full_system_time)
    }

    /// Speedup of the optical core over Eyeriss.
    #[must_use]
    pub fn speedup_o_vs_eyeriss(&self) -> f64 {
        self.eyeriss.ratio(self.pcnna.optical_time)
    }
}

/// The numbers the paper states inline, as reproduced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InlineChecks {
    /// AlexNet conv1 rings without filtering, eq. (4) (paper: ~5.2 billion).
    pub conv1_unfiltered_rings: u64,
    /// AlexNet conv1 rings with filtering, eq. (5) (paper: ~35 thousand).
    pub conv1_filtered_rings: u64,
    /// conv1's filtering saving (paper: more than 150k×).
    pub conv1_saving: f64,
    /// conv4 rings, channel-sequential (paper: 3456).
    pub conv4_channel_sequential_rings: u64,
    /// Their area, mm² (paper: 2.2 mm²).
    pub conv4_channel_sequential_mm2: f64,
    /// conv4's newly loaded inputs per location, `nc·m·s` (eq. (8)).
    pub conv4_updates_per_location: u64,
    /// Sequential conversions per location on the input DACs (paper: ≈116).
    pub conv4_dac_conversions: u64,
    /// Share of AlexNet's MACs in its conv layers (§I: roughly 90%).
    pub conv_mac_fraction: f64,
}

/// The record: the paper's stated numbers as data, and the Markdown that
/// prints them with everything else.
#[derive(Debug, Clone)]
pub struct Paper {
    /// The numbers §I and §V state inline.
    pub checks: InlineChecks,
    /// Figure 6, one row per AlexNet conv layer.
    pub fig6: Vec<Fig6Row>,
    /// The Markdown of `EXPERIMENTS.md`.
    pub markdown: String,
}

/// Renders `EXPERIMENTS.md`.
///
/// # Errors
///
/// Propagates the first model error; the paper design point and the zoo
/// networks raise none.
pub fn render() -> Result<String, CoreError> {
    Ok(Paper::compute()?.markdown)
}

impl Paper {
    /// Runs every model the record reports, at the paper's design point,
    /// and renders the record.
    ///
    /// # Errors
    ///
    /// Propagates the first model error.
    pub fn compute() -> Result<Paper, CoreError> {
        let config = PcnnaConfig::default();
        let accel = Pcnna::new(config)?;
        let alexnet = zoo::alexnet_conv_layers();
        let (conv1, conv4) = (alexnet[0].1, alexnet[3].1);
        let report = accel.analyze_conv_layers(&alexnet)?;
        let (eyeriss, yodann) = (Eyeriss::default(), YodaNn::default());
        let fig6: Vec<Fig6Row> = report
            .layers
            .iter()
            .zip(&alexnet)
            .map(|(row, (_, g))| Fig6Row {
                eyeriss: eyeriss.layer_time(g),
                yodann: yodann.layer_time(g),
                pcnna: row.clone(),
            })
            .collect();
        let filtered = RingAllocation::for_layer(&conv1, AllocationPolicy::Filtered);
        let seq = RingAllocation::for_layer(&conv4, AllocationPolicy::FilteredChannelSequential);
        let updates = report.layers[3].timing.updates_per_location;
        let checks = InlineChecks {
            conv1_unfiltered_rings: RingAllocation::for_layer(&conv1, AllocationPolicy::Unfiltered)
                .rings,
            conv1_filtered_rings: filtered.rings,
            conv1_saving: filtered.saving_vs_unfiltered(&conv1),
            conv4_channel_sequential_rings: seq.rings,
            conv4_channel_sequential_mm2: AreaModel::default().rings_area_mm2(seq.rings),
            conv4_updates_per_location: updates,
            conv4_dac_conversions: updates.div_ceil(config.n_input_dacs as u64),
            conv_mac_fraction: network_stats(&zoo::alexnet())?.conv_mac_fraction(),
        };
        let mut out = String::from(HEADER);
        table1(&mut out, &alexnet, &checks);
        fig2(&mut out)?;
        fig3(&mut out)?;
        fig4(&mut out, config)?;
        fig5(&mut out, &alexnet, &checks);
        fig6_section(&mut out, config, &alexnet, &fig6, &checks)?;
        power_reality_check(&mut out, config, &alexnet)?;
        feasibility::spectral_feasibility(&mut out, config)?;
        writeback(&mut out, config, &alexnet)?;
        scan_order(&mut out, config, &alexnet)?;
        analog_precision(&mut out, config)?;
        thermal_stability(&mut out)?;
        other_networks(&mut out, &accel)?;
        design_sensitivity(&mut out, config, conv4)?;
        out.truncate(out.trim_end().len());
        out.push('\n');
        Ok(Paper {
            checks,
            fig6,
            markdown: out,
        })
    }
}

/// The best of one speedup over the Figure 6 layers.
#[must_use]
pub fn best(fig6: &[Fig6Row], speedup: fn(&Fig6Row) -> f64) -> f64 {
    fig6.iter().map(speedup).fold(0.0, f64::max)
}

fn table1(out: &mut String, alexnet: &Layers, checks: &InlineChecks) {
    section(
        out,
        "Table I",
        "Convolution-layer parameters instantiated for every AlexNet conv layer. \
         n: input side, m: kernel side, p: padding, s: stride, nc: input channels, \
         K: kernels; Ninput = n·n·nc (eq. 1), Nkernel = m·m·nc (eq. 2), \
         Noutput = ((n+2p−m)/s + 1)²·K (eq. 3).",
    );
    let rows = alexnet.iter().map(|(name, g)| {
        let (n, m, p, s) = (g.input_side(), g.kernel_side(), g.padding(), g.stride());
        let (nc, k, ni, no, nk) = (
            g.channels(),
            g.kernels(),
            g.n_input(),
            g.n_output(),
            g.n_kernel(),
        );
        format!("{name}|{n}|{m}|{p}|{s}|{nc}|{k}|{ni}|{no}|{nk}")
    });
    table(out, "layer|n|m|p|s|nc|K|Ninput|Noutput|Nkernel", rows);
    let share = pct(checks.conv_mac_fraction);
    let rows = [format!("conv share of AlexNet MACs|{share}|roughly 90%")];
    table(out, "§I check|reproduced|paper", rows);
}

fn fig2(out: &mut String) -> Result<(), CoreError> {
    let g = ConvGeometry::new(16, 3, 0, 1, 1, 5)?;
    section(
        out,
        "Fig. 2",
        &format!(
            "Receptive-field filtering: the MRR bank for a 16×16 input feature map and \
             five 3×3 kernels ({g})."
        ),
    );
    let area = AreaModel::default();
    let [unf, fil] = [AllocationPolicy::Unfiltered, AllocationPolicy::Filtered]
        .map(|policy| RingAllocation::for_layer(&g, policy));
    let rows = [("(a) without filtering", unf), ("(b) with filtering", fil)].map(|(l, a)| {
        let (wl, per_bank, banks, rings) = (a.wavelengths, a.rings_per_bank, a.banks, a.rings);
        let mm2 = area.rings_area_mm2(rings);
        format!("{l}|{wl}|{per_bank}|{banks}|{rings}|{mm2:.3}")
    });
    let head = "allocation|wavelengths|rings/bank|banks|rings|area (mm²)";
    table(out, head, rows);
    out.push_str(&format!(
        "Filtering saves {:.1}× rings and {:.1}× wavelengths on this example.\n\n",
        unf.rings as f64 / fil.rings as f64,
        unf.wavelengths as f64 / fil.wavelengths as f64,
    ));
    Ok(())
}

fn fig3(out: &mut String) -> Result<(), CoreError> {
    let g = ConvGeometry::new(9, 3, 0, 1, 3, 4)?;
    let schedule = LocationSchedule::new(g, ScanOrder::RowMajor);
    let rm = schedule.stats();
    let serp = LocationSchedule::new(g, ScanOrder::Serpentine).stats();
    section(
        out,
        "Fig. 3",
        &format!(
            "Kernel-location schedule for {g}: K = {} kernels execute in parallel at \
             each of the {} locations. Newly loaded input values per location \
             (oy, ox), row-major scan:",
            g.kernels(),
            rm.locations
        ),
    );
    let o = g.output_side();
    let head: Vec<String> = (0..o).map(|ox| ox.to_string()).collect();
    let counts = schedule.update_counts();
    let rows = counts.chunks(o).enumerate().map(|(oy, counts)| {
        let counts: Vec<String> = counts.iter().map(u64::to_string).collect();
        format!("{oy}|{}", counts.join("|"))
    });
    table(out, &format!("oy \\ ox|{}", head.join("|")), rows);
    out.push_str(&format!(
        "- First fill: {} values; the paper's steady-state estimate nc·m·s = {}.\n\
         - Exact total loads: {} (vs {} if every location reloaded the full field).\n\
         - Serpentine scan (reproduction extension): {} total loads, worst step {}.\n\n",
        rm.first_loads,
        rm.paper_steady_estimate,
        rm.total_loads,
        rm.locations * g.n_kernel(),
        serp.total_loads,
        serp.max_steady_loads,
    ));
    Ok(())
}

fn fig4(out: &mut String, config: PcnnaConfig) -> Result<(), CoreError> {
    section(out, "Fig. 4", "Architecture stages and clock domains.");
    out.push_str(&format!(
        "- Slow (main) clock domain: off-chip DRAM ↔ kernel-weights, input and output \
         buffers.\n\
         - Fast clock domain ({} GHz): SRAM cache ({} × 16b words, {} access); {} input \
         DACs + {} weight DAC at {} GSa/s ({} bits); LD array → MZMs → MRR weight-bank \
         repository → photodiodes; {} ADCs at {} GSa/s.\n\n",
        config.fast_clock.frequency_hz() / 1e9,
        config.sram.capacity_words(),
        config.sram.access_time,
        config.n_input_dacs,
        config.n_weight_dacs,
        config.input_dac.rate_sps / 1e9,
        config.input_dac.bits,
        config.n_adcs,
        config.adc.rate_sps / 1e9,
    ));
    let g = ConvGeometry::new(12, 3, 1, 1, 4, 8)?;
    let r = PipelineSimulator::new(config)?.simulate_layer("demo", &g)?;
    out.push_str(&format!(
        "Pipeline simulation of a demo layer ({g}). The optical core idles waiting on \
         electronic I/O — the paper's point.\n\n"
    ));
    let rows = [
        format!("total|{}", r.total_time),
        format!("front-end busy|{}", r.busy.front_end),
        format!("optical busy|{}", r.busy.optical),
        format!("back-end busy|{}", r.busy.back_end),
        format!("optical core utilisation|{}", pct(r.optical_utilization())),
        format!("SRAM hit rate|{}", pct(r.cache.hit_rate())),
    ];
    table(out, "quantity|value", rows);
    Ok(())
}

fn fig5(out: &mut String, alexnet: &Layers, c: &InlineChecks) {
    section(
        out,
        "Fig. 5",
        "Microrings per AlexNet conv layer: not filtered (eq. 4), filtered (eq. 5), \
         and channel-sequential (one input channel's m·m carriers per pass, the \
         reading under which the paper's conv4 arithmetic holds).",
    );
    let rows = figure5(alexnet, &AreaModel::default())
        .into_iter()
        .map(|r| {
            let (unf, fil) = (group_digits(r.not_filtered), group_digits(r.filtered));
            let (seq, mm2) = (
                group_digits(r.filtered_channel_sequential),
                r.filtered_area_mm2,
            );
            format!("{}|{unf}|{fil}|{seq}|{mm2:.3}", r.layer)
        });
    let head = "layer|not filtered|filtered|channel-sequential|filtered area (mm²)";
    table(out, head, rows);
    out.push_str("### §V-A checks\n\n");
    const CONV4_PAPER: &str = "3 456 rings, 2.2 mm²";
    let (rings, mm2) = (
        c.conv4_channel_sequential_rings,
        c.conv4_channel_sequential_mm2,
    );
    let rows = [
        format!(
            "conv1 rings, not filtered|{}|~5.2 billion",
            c.conv1_unfiltered_rings
        ),
        format!(
            "conv1 rings, filtered|{}|~35 thousand",
            c.conv1_filtered_rings
        ),
        format!("conv1 filtering saving|{:.0}×|>150k×", c.conv1_saving),
        format!("conv4 rings, channel-sequential|{rings} rings, {mm2:.2} mm²|{CONV4_PAPER}"),
    ];
    table(out, "check|reproduced|paper", rows);
}

fn fig6_section(
    out: &mut String,
    config: PcnnaConfig,
    alexnet: &Layers,
    fig6: &[Fig6Row],
    c: &InlineChecks,
) -> Result<(), CoreError> {
    section(
        out,
        "Fig. 6",
        "Execution time of the AlexNet conv layers on Eyeriss-like and YodaNN-like \
         engines and on PCNNA: the full system O+E (eq. 8, input DACs the \
         bottleneck) and the optical core O (eq. 7). Speedups are over Eyeriss; the \
         I/O slowdown is O+E over O.",
    );
    let mut rows: Vec<String> = fig6
        .iter()
        .map(|r| {
            let p = &r.pcnna;
            let (name, locs, bound) = (&p.name, p.locations, &p.bottleneck);
            let (eyeriss, yodann, full, optical) =
                (r.eyeriss, r.yodann, p.full_system_time, p.optical_time);
            let slowdown = p.timing.io_slowdown();
            let (oe, o) = (
                times(r.speedup_oe_vs_eyeriss()),
                times(r.speedup_o_vs_eyeriss()),
            );
            format!(
                "{name}|{locs}|{eyeriss}|{yodann}|{full}|{optical}|{bound}|{slowdown:.1}×|{oe}|{o}"
            )
        })
        .collect();
    let sum = |f: fn(&Fig6Row) -> SimTime| fig6.iter().map(f).sum::<SimTime>();
    let (eyeriss, yodann) = (sum(|r| r.eyeriss), sum(|r| r.yodann));
    let full = sum(|r| r.pcnna.full_system_time);
    let optical = sum(|r| r.pcnna.optical_time);
    let (oe, o) = (times(eyeriss.ratio(full)), times(eyeriss.ratio(optical)));
    rows.push(format!(
        "total||{eyeriss}|{yodann}|{full}|{optical}|||{oe}|{o}"
    ));
    let head = "layer|Nlocs|Eyeriss|YodaNN|PCNNA(O+E)|PCNNA(O)|bound by|I/O slowdown\
                |O+E speedup|O speedup";
    table(out, head, rows);

    out.push_str("### eq. (8) and the headline claims\n\n");
    let (updates, dacs) = (c.conv4_updates_per_location, config.n_input_dacs);
    let (conversions, per_location) = (
        c.conv4_dac_conversions,
        fig6[3].pcnna.timing.dac_time_per_location,
    );
    let (best_oe, best_o) = (
        times(best(fig6, Fig6Row::speedup_oe_vs_eyeriss)),
        times(best(fig6, Fig6Row::speedup_o_vs_eyeriss)),
    );
    let rows = [
        format!(
            "conv4 DAC conversions per location, ⌈nc·m·s / NDAC⌉ = ⌈{updates} / {dacs}⌉\
             |{conversions} ({per_location} per location)|≈116"
        ),
        format!("best full-system (O+E) speedup|{best_oe}|>3 orders of magnitude"),
        format!("best optical-core (O) speedup|{best_o}|>5 orders of magnitude"),
    ];
    table(out, "check|reproduced|paper", rows);

    out.push_str(
        "### Max-of-stages bottleneck model\n\n\
         Reproduction extension: the full-system time when every pipelined stage \
         (SRAM, DAC, optical passes, ADC batch, DRAM stream) is priced and the \
         slowest one binds, instead of the DAC alone.\n\n",
    );
    let fuller = Pcnna::new(config.with_bottleneck(BottleneckModel::MaxOfStages))?;
    let report = fuller.analyze_conv_layers(alexnet)?;
    let rows = report
        .layers
        .iter()
        .map(|l| format!("{}|{}|{}", l.name, l.full_system_time, l.bottleneck));
    table(out, "layer|PCNNA(O+E)|bound by", rows);
    Ok(())
}

fn power_reality_check(
    out: &mut String,
    config: PcnnaConfig,
    alexnet: &Layers,
) -> Result<(), CoreError> {
    section(
        out,
        "Power reality check",
        "Reproduction extension. Per-layer power under filtered allocation (lasers, \
         ring heaters, electronics), then energy per layer execution next to the \
         electronic baselines. The paper claims a power advantage qualitatively.",
    );
    let power = PowerModel::new(config, PowerAssumptions::default())?.network_power(alexnet)?;
    let rows = power.iter().map(|p| {
        let b = &p.photonic;
        let (lasers, heaters, elec, total) = (b.lasers_w, b.heaters_w, p.electronic_w, p.total_w);
        let dominant = b.dominant().0;
        format!(
            "{}|{lasers:.2}|{heaters:.2}|{elec:.2}|{total:.2}|{dominant}",
            p.name
        )
    });
    let head = "layer|lasers (W)|heaters (W)|electronics (W)|total (W)|dominant";
    table(out, head, rows);
    let (eyeriss, yodann) = (Eyeriss::default(), YodaNn::default());
    let rows = power.iter().zip(alexnet).map(|(p, (name, g))| {
        let pcnna = p.energy.total_j() * 1e6;
        let (eyeriss, yodann) = (
            eyeriss.layer_energy_j(g) * 1e6,
            yodann.layer_energy_j(g) * 1e6,
        );
        let gmacs = p.macs_per_joule / 1e9;
        format!("{name}|{pcnna:.2}|{eyeriss:.2}|{yodann:.2}|{gmacs:.1}")
    });
    let head = "layer|PCNNA (µJ)|Eyeriss (µJ)|YodaNN (µJ)|PCNNA GMAC/J";
    table(out, head, rows);
    out.push_str(
        "Under eq. (5) allocation the deep layers carry more than a million rings, \
         whose heater budget alone reaches ~100 W: static photonic power, not \
         converter energy, decides whether PCNNA's energy story holds.\n\n",
    );
    Ok(())
}

/// The networks the spectral and multi-network sections cover: AlexNet,
/// the two other networks the paper cites, and VGG-16.
pub(crate) fn networks() -> [(&'static str, Vec<(&'static str, ConvGeometry)>); 4] {
    [
        ("AlexNet", zoo::alexnet_conv_layers()),
        ("GoogLeNet stem + 3a", zoo::googlenet_stem_conv_layers()),
        ("ResNet-18", zoo::resnet18_conv_layers()),
        ("VGG-16", zoo::vgg16_conv_layers()),
    ]
}

fn writeback(out: &mut String, config: PcnnaConfig, alexnet: &Layers) -> Result<(), CoreError> {
    section(
        out,
        "Writeback dominates latency",
        "Reproduction finding. The paper processes layers sequentially and stores \
         each output feature map back to DRAM. Chaining the AlexNet conv layers that \
         way (kernel-weight loads amortised, as in the paper) prices each layer's \
         compute (Fig. 6's O+E time) and its writeback at the DRAM's streaming rate.",
    );
    let run = ExecutionModel::new(config)?.run(alexnet)?;
    let mut rows: Vec<String> = run
        .phases
        .iter()
        .map(|p| format!("{}|{}|{}|{}", p.name, p.compute, p.writeback, p.total))
        .collect();
    let compute: SimTime = run.phases.iter().map(|p| p.compute).sum();
    let writeback: SimTime = run.phases.iter().map(|p| p.writeback).sum();
    rows.push(format!("network|{compute}|{writeback}|{}", run.latency));
    table(out, "layer|compute|writeback|total", rows);
    out.push_str(&format!(
        "Writeback is {} of the {} frame latency ({:.0} frames/s): DRAM writeback, \
         not the input DACs the paper names, bounds network latency.\n\n",
        pct(writeback.ratio(run.latency)),
        run.latency,
        run.frames_per_second(),
    ));
    Ok(())
}

fn scan_order(out: &mut String, config: PcnnaConfig, alexnet: &Layers) -> Result<(), CoreError> {
    section(
        out,
        "Scan-order ablation",
        "Reproduction extension. Pipeline simulation (exact update sets, SRAM cache, \
         DRAM stream) of every AlexNet conv layer under the row-major scan the paper \
         describes and a serpentine scan that reuses the overlap at row turns.",
    );
    let mut rows = Vec::new();
    let mut totals = Vec::new();
    for (label, scan) in [
        ("row-major", ScanOrder::RowMajor),
        ("serpentine", ScanOrder::Serpentine),
    ] {
        let sims = Pcnna::new(config.with_scan(scan))?.simulate_conv_layers(alexnet)?;
        totals.push(sims.iter().map(|r| r.total_time).sum::<SimTime>());
        rows.extend(sims.into_iter().map(|r| {
            let (loads, time) = (r.total_input_loads, r.total_time);
            let (util, hits) = (pct(r.optical_utilization()), pct(r.cache.hit_rate()));
            let (bytes, uj) = (
                group_digits(r.traffic.total_bytes()),
                r.energy.total_j() * 1e6,
            );
            format!(
                "{}|{label}|{loads}|{time}|{util}|{hits}|{bytes}|{uj:.3}",
                r.name
            )
        }));
    }
    let head = "layer|scan|input loads|sim time|optical util|SRAM hit rate|DRAM bytes|energy (µJ)";
    table(out, head, rows);
    out.push_str(&format!(
        "Network total: row-major {}, serpentine {}. Serpentine never loads more \
         inputs, but FIFO eviction can cost a layer a few extra DRAM misses, so \
         per-layer time only holds within slack.\n\n",
        totals[0], totals[1]
    ));
    Ok(())
}

fn analog_precision(out: &mut String, config: PcnnaConfig) -> Result<(), CoreError> {
    section(
        out,
        "Analog precision",
        "Reproduction extension (experiment E1). SNR of the photonic convolution \
         against the digital reference, per conv layer of the CIFAR-small network, \
         under four conditions: device non-idealities only; plus 16-bit DAC and \
         10-bit ADC quantization; plus shot, thermal and RIN noise at 1 mW per \
         carrier; noise without quantization.",
    );
    let exec = PhotonicConvExecutor::new(config)?;
    let net = zoo::cifar_small();
    let quantized = FunctionalOptions::default();
    let ideal = FunctionalOptions {
        adc_quantization: false,
        dac_quantization: false,
        ..quantized
    };
    let noisy = |opts| FunctionalOptions {
        noise: true,
        seed: 42,
        ..opts
    };
    let mut rows = Vec::new();
    for (label, opts) in [
        ("analog only", ideal),
        ("quantized I/O", quantized),
        ("quantized + noise", noisy(quantized)),
        ("noise only", noisy(ideal)),
    ] {
        let mut row = label.to_owned();
        for (i, conv) in net.conv_layers().enumerate() {
            let wl = Workload::uniform(&conv.geometry, 300 + i as u64);
            let run = exec.run_layer(&conv.geometry, &wl.input, &wl.kernels, &opts)?;
            row.push_str(&format!("|{:.1}", run.accuracy.snr_db));
        }
        rows.push(row);
    }
    let head: Vec<String> = net
        .conv_layers()
        .map(|c| format!("{} (dB)", c.name))
        .collect();
    table(out, &format!("condition|{}", head.join("|")), rows);
    Ok(())
}

/// A calibrated 8-ring bank with ideal tuners, weights spread over
/// [−0.7, 0.7], and its targets.
fn calibrated_bank() -> Result<(MrrWeightBank, Vec<f64>), CoreError> {
    let params = RingParams {
        tuning_bits: None,
        ..RingParams::default()
    };
    let mut bank = MrrWeightBank::new(WdmGrid::dense_50ghz(8)?, params)?;
    let targets: Vec<f64> = (0..8).map(|i| -0.7 + 1.4 * f64::from(i) / 7.0).collect();
    bank.calibrate(&targets, 1e-6, 300)?;
    Ok((bank, targets))
}

fn thermal_stability(out: &mut String) -> Result<(), CoreError> {
    let model = ThermalModel::default();
    section(
        out,
        "Thermal stability",
        &format!(
            "Reproduction extension. Heater crosstalk ({:.0}% nearest-neighbour \
             coupling) and ambient drift ({:.0} pm/K) disturb a calibrated 8-ring \
             weight bank; the closed-loop recalibration the paper's \"tuning\" \
             presumes must undo them.",
            model.neighbor_coupling * 100.0,
            model.drift_m_per_k * 1e12,
        ),
    );
    let (mut bank, targets) = calibrated_bank()?;
    let crosstalk = model.apply_crosstalk(&mut bank);
    let recalibrated = bank.calibrate(&targets, 1e-6, 300)?;
    let budget_mk = model.tolerable_excursion_k(&calibrated_bank()?.0, 0.01) * 1000.0;
    out.push_str(&format!(
        "- Max weight error after crosstalk: {crosstalk:.4}; after closed-loop \
         recalibration: {:.2e} ({} iterations).\n\
         - Temperature budget for 1% weight accuracy: ±{budget_mk:.0} mK.\n\n",
        recalibrated.residual, recalibrated.iterations,
    ));
    let mut rows = Vec::new();
    for mk in [1.0f64, 10.0, 100.0, 1000.0] {
        let error = model.apply_ambient(&mut calibrated_bank()?.0, mk / 1000.0);
        rows.push(format!("{mk} mK|{error:.4}"));
    }
    table(out, "ambient excursion|max weight error", rows);
    Ok(())
}

fn other_networks(out: &mut String, accel: &Pcnna) -> Result<(), CoreError> {
    section(
        out,
        "Other networks",
        "Reproduction extension. The Fig. 6 evaluation extended to the other \
         networks the paper cites, GoogLeNet and ResNet, plus VGG-16. A layer whose \
         receptive field overflows the input SRAM would be tiled over its channels \
         instead of refused.",
    );
    let planner = TilingPlanner::new(*accel.config())?;
    let constraints = TileConstraints::from_config(accel.config());
    let mut rows = Vec::new();
    for (net, layers) in networks() {
        let (mut pcnna, mut tiled) = (SimTime::ZERO, 0usize);
        for (name, g) in &layers {
            pcnna += match accel.analytical().layer_full_system_time(g) {
                Ok(t) => t,
                Err(CoreError::ResourceExceeded {
                    resource: "input SRAM (words)",
                    ..
                }) => {
                    tiled += 1;
                    planner.plan(name, g, &constraints)?.full_system_time
                }
                Err(e) => return Err(e),
            };
        }
        let eyeriss = Eyeriss::default().network_time(&layers);
        let gmacs = layers.iter().map(|(_, g)| g.macs()).sum::<u64>() as f64 / 1e9;
        let (n, speedup) = (layers.len(), times(eyeriss.ratio(pcnna)));
        rows.push(format!(
            "{net}|{n}|{gmacs:.2}|{tiled}|{pcnna}|{eyeriss}|{speedup}"
        ));
    }
    let head = "network|conv layers|conv MACs (G)|tiled (SRAM)|PCNNA(O+E)|Eyeriss-like|speedup";
    table(out, head, rows);
    out.push_str("### AlexNet FC layers as degenerate convolutions\n\n");
    let mut rows = Vec::new();
    for (name, inputs, outputs) in [
        ("fc6", 9216, 4096),
        ("fc7", 4096, 4096),
        ("fc8", 4096, 1000),
    ] {
        let g = ConvGeometry::for_fully_connected(inputs, outputs)?;
        let plan = planner.plan(name, &g, &constraints)?;
        let (tiles, channels, time) = (plan.tiles, plan.channels_per_tile, plan.full_system_time);
        rows.push(format!("{name}|{inputs}|{tiles}|{channels}|{time}"));
    }
    table(
        out,
        "layer|inputs|tiles|channels per tile|time per pass",
        rows,
    );
    Ok(())
}

fn design_sensitivity(
    out: &mut String,
    config: PcnnaConfig,
    conv4: ConvGeometry,
) -> Result<(), CoreError> {
    section(
        out,
        "Design sensitivity",
        "Reproduction extension. AlexNet conv4 (the largest layer) against the input \
         DAC count (full-system time, DAC-only model) and against the fast clock \
         (optical-core time). The scan order is swept in \"Scan-order ablation\".",
    );
    let mut rows = Vec::new();
    for n in [1usize, 2, 5, 10, 20, 50, 100] {
        let accel = Pcnna::new(config.with_input_dacs(n))?;
        let time = accel.analytical().layer_full_system_time(&conv4)?;
        rows.push(format!("{n}|{time}"));
    }
    table(out, "NDAC|conv4 PCNNA(O+E)", rows);
    let mut rows = Vec::new();
    for ghz in [1.0f64, 2.0, 5.0, 10.0, 20.0] {
        let accel = Pcnna::new(config.with_fast_clock(ClockDomain::new("fast", ghz * 1e9)?))?;
        let time = accel.analytical().optical_time(&conv4);
        rows.push(format!("{ghz} GHz|{time}"));
    }
    table(out, "fast clock|conv4 PCNNA(O)", rows);
    Ok(())
}

fn pct(fraction: f64) -> String {
    format!("{:.1}%", 100.0 * fraction)
}

fn times(ratio: f64) -> String {
    format!("{ratio:.0}×")
}

/// Formats a count with thousands separators (`5_245_599_744` →
/// `5,245,599,744`).
fn group_digits(n: u64) -> String {
    let s = n.to_string();
    let mut out = String::with_capacity(s.len() + s.len() / 3);
    for (i, ch) in s.chars().enumerate() {
        if i != 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(ch);
    }
    out
}

/// The record, computed once per test binary.
#[cfg(test)]
pub(crate) fn record() -> &'static Paper {
    static PAPER: std::sync::OnceLock<Paper> = std::sync::OnceLock::new();
    PAPER.get_or_init(|| Paper::compute().expect("the paper design point computes"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_digits_formats() {
        assert_eq!(group_digits(0), "0");
        assert_eq!(group_digits(999), "999");
        assert_eq!(group_digits(1000), "1,000");
        assert_eq!(group_digits(5_245_599_744), "5,245,599,744");
    }

    #[test]
    fn render_holds_every_layer() {
        let md = &record().markdown;
        assert_eq!(render().unwrap(), *md);
        for layer in ["conv1", "conv3", "conv5", "layer2.0.downsample", "fc6"] {
            assert!(md.contains(&format!("| {layer} |")), "{layer}");
        }
    }
}
