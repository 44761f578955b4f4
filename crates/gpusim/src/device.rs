//! Accelerator and cluster profiles: the device zoo.
//!
//! A [`DeviceProfile`] is a declarative capability record — device class,
//! compute peaks by precision, memory *tiers* (capacity + bandwidth +
//! weights-resident flag), interconnect ports, and power/price — rather
//! than a bag of booleans special-cased downstream. Profiles come from the
//! [`zoo`] registry (five classes: datacenter GPU, wafer-scale, consumer
//! GPU, unified-memory desktop, edge SoC) or are written as plain records
//! for synthetic what-if devices, and round-trip through moe-json.
//! [`DeviceProfile::validate`] checks a record before it is priced.
//!
//! Numbers for the H100 SXM5 come from the public datasheet (dense, i.e.
//! no structured sparsity): 989 TFLOP/s BF16/FP16, 1979 TFLOP/s FP8/INT8,
//! 3.35 TB/s HBM3, 80 GB, 50 MB L2, 132 SMs, 4th-gen NVLink at 450 GB/s
//! per direction. The CS-3 profile models the wafer-scale execution mode
//! the paper describes: weights resident on-wafer (no per-step weight
//! streaming), very high on-chip bandwidth, and a modest fixed per-launch
//! overhead. Consumer/edge datasheet values are cited in
//! `docs/DEVICES.md`.

use moe_json::{FromJson, ToJson};
use moe_tensor::Precision;

/// Broad hardware class a profile belongs to. Drives nothing in the cost
/// model directly — capability comes from the numeric record — but labels
/// reports and feasibility tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, ToJson, FromJson)]
pub enum DeviceClass {
    /// Server accelerator with HBM and a high-speed scale-up fabric.
    DatacenterGpu,
    /// Wafer-scale engine with weights resident in on-wafer SRAM.
    WaferScale,
    /// PCIe consumer card (GDDR, no NVLink).
    ConsumerGpu,
    /// Desktop SoC with large unified CPU/GPU memory.
    UnifiedMemory,
    /// Power-constrained embedded SoC.
    EdgeSoc,
}

impl DeviceClass {
    /// Stable kebab-case label for report tables and order keys.
    pub fn label(&self) -> &'static str {
        match self {
            DeviceClass::DatacenterGpu => "datacenter-gpu",
            DeviceClass::WaferScale => "wafer-scale",
            DeviceClass::ConsumerGpu => "consumer-gpu",
            DeviceClass::UnifiedMemory => "unified-memory",
            DeviceClass::EdgeSoc => "edge-soc",
        }
    }
}

/// One memory tier of a device. The first tier in a profile is the *weight
/// tier*: the memory weights are served from, whose bandwidth prices
/// per-step weight streaming. `weights_resident` marks tiers whose weight
/// traffic is free per step (CS-3 weight-stationary dataflow) — a property
/// of the tier, not a device-level special case.
#[derive(Debug, Clone, PartialEq, ToJson, FromJson)]
pub struct MemoryTier {
    /// Technology label ("HBM3", "GDDR6X", "on-wafer SRAM", ...).
    pub name: String,
    /// Capacity (B).
    pub capacity: f64,
    /// Peak bandwidth (B/s).
    pub bandwidth: f64,
    /// Sustained fraction of peak that streaming kernels reach.
    pub peak_fraction: f64,
    /// Weights living here cost no per-step streaming traffic.
    pub weights_resident: bool,
}

/// A named interconnect attachment point of a device. The first port is
/// the default scale-up fabric used when building ad-hoc clusters.
#[derive(Debug, Clone, PartialEq, ToJson, FromJson)]
pub struct InterconnectPort {
    /// Fabric label ("nvlink4", "pcie-gen4-x16", ...).
    pub name: String,
    pub link: Interconnect,
}

/// Power draw and an indicative price, for CAP cost metrics. Prices are
/// rental/amortised rates (see `docs/DEVICES.md`), not purchase prices.
#[derive(Debug, Clone, PartialEq, ToJson, FromJson)]
pub struct PowerPrice {
    /// Board/system TDP (W).
    pub tdp_w: f64,
    /// Indicative cost of running one device for an hour (USD).
    pub price_per_hour_usd: f64,
}

/// Performance-relevant description of one accelerator.
#[derive(Debug, Clone, PartialEq, ToJson, FromJson)]
pub struct DeviceProfile {
    pub name: String,
    pub class: DeviceClass,
    /// Dense tensor-core peak at 16-bit precision (FLOP/s).
    pub peak_flops_16bit: f64,
    /// Dense tensor-core peak at 8-bit precisions (FLOP/s).
    pub peak_flops_8bit: f64,
    /// Vector fp32 peak (FLOP/s) — used for non-GEMM work.
    pub peak_flops_fp32: f64,
    /// Memory tiers, weight tier first (see [`MemoryTier`]).
    pub tiers: Vec<MemoryTier>,
    /// Last-level cache size (B); reads hitting in LLC are free in the
    /// model (used for small activation working sets).
    pub llc_bytes: f64,
    /// Fixed cost of dispatching one kernel (s).
    pub kernel_launch_s: f64,
    /// Number of streaming multiprocessors (wave-quantization granularity).
    pub num_sms: usize,
    /// Sustained fraction of peak a well-tuned GEMM reaches at best.
    pub gemm_peak_fraction: f64,
    /// Interconnect attachment points, default scale-up fabric first.
    pub ports: Vec<InterconnectPort>,
    pub power: PowerPrice,
}

impl DeviceProfile {
    /// Tensor-core peak for the given weight precision. 16-bit activations
    /// against 8-bit weights still run the 8-bit tensor pipes on H100.
    pub fn peak_flops(&self, p: Precision) -> f64 {
        match p {
            Precision::F32 => self.peak_flops_fp32,
            Precision::F16 | Precision::Bf16 => self.peak_flops_16bit,
            Precision::Fp8E4M3 | Precision::Int8 | Precision::Int4 => self.peak_flops_8bit,
        }
    }

    /// Effective sustained GEMM throughput ceiling (FLOP/s).
    pub fn sustained_flops(&self, p: Precision) -> f64 {
        self.peak_flops(p) * self.gemm_peak_fraction
    }

    /// The tier weights are served from (tier 0 by convention).
    fn weight_tier(&self) -> &MemoryTier {
        self.tiers
            .first()
            .expect("device profile needs at least one memory tier") // lint:allow(no-panic-in-lib) -- `validate`, run by `PerfModel::new`, rejects a tierless profile; it is unusable
    }

    /// Weight-tier capacity (B).
    pub fn mem_capacity(&self) -> f64 {
        self.weight_tier().capacity
    }

    /// Weight-tier peak bandwidth (B/s).
    pub fn mem_bandwidth(&self) -> f64 {
        self.weight_tier().bandwidth
    }

    /// Effective sustained memory bandwidth (B/s).
    pub fn sustained_bandwidth(&self) -> f64 {
        let tier = self.weight_tier();
        tier.bandwidth * tier.peak_fraction
    }

    /// Whether per-step weight streaming is free (weights resident in the
    /// weight tier — the CS-3 dataflow).
    pub fn weights_stationary(&self) -> bool {
        self.weight_tier().weights_resident
    }

    /// Default scale-up fabric: the first declared port, or PCIe Gen5 for
    /// a profile that declares none.
    pub fn default_link(&self) -> Interconnect {
        match self.ports.first() {
            Some(p) => p.link,
            None => Interconnect::pcie_gen5(),
        }
    }

    /// A derived profile with every memory tier's bandwidth scaled by
    /// `scale` — the bandwidth-knee sweep axis of `ext-cap`. Compute
    /// peaks, capacity and price stay fixed so the sweep isolates
    /// bandwidth.
    pub fn with_scaled_bandwidth(&self, scale: f64) -> Self {
        let mut out = self.clone();
        for tier in &mut out.tiers {
            tier.bandwidth *= scale;
        }
        out
    }

    /// Check the record is one the cost model can price: a name, positive
    /// compute peaks, at least one memory tier with positive capacity and
    /// bandwidth, fractions in (0, 1], at least one SM and a non-negative
    /// launch cost. NaN fails every check. [`PerfModel::new`] runs this,
    /// so zoo presets, derived and JSON-loaded profiles are all checked
    /// before they are priced.
    ///
    /// [`PerfModel::new`]: crate::perfmodel::PerfModel::new
    pub fn validate(&self) -> Result<(), String> {
        let positive = |x: f64| x > 0.0;
        let fraction = |x: f64| x > 0.0 && x <= 1.0;
        if self.name.is_empty() {
            return Err("device profile needs a name".into());
        }
        let peaks = [
            self.peak_flops_16bit,
            self.peak_flops_8bit,
            self.peak_flops_fp32,
        ];
        if !peaks.into_iter().all(positive) {
            return Err(format!("{}: compute peaks must be positive", self.name));
        }
        if self.tiers.is_empty() {
            return Err(format!("{}: needs at least one memory tier", self.name));
        }
        for t in &self.tiers {
            if !(positive(t.capacity) && positive(t.bandwidth)) {
                return Err(format!(
                    "{}: tier {} needs positive capacity and bandwidth",
                    self.name, t.name
                ));
            }
            if !fraction(t.peak_fraction) {
                return Err(format!(
                    "{}: tier {} peak_fraction must be in (0, 1]",
                    self.name, t.name
                ));
            }
        }
        if !fraction(self.gemm_peak_fraction) {
            return Err(format!(
                "{}: gemm_peak_fraction must be in (0, 1]",
                self.name
            ));
        }
        if self.num_sms == 0 {
            return Err(format!("{}: needs at least one SM", self.name));
        }
        if self.kernel_launch_s.is_nan() || self.kernel_launch_s < 0.0 {
            return Err(format!(
                "{}: kernel_launch_s must be non-negative",
                self.name
            ));
        }
        Ok(())
    }
}

/// NVIDIA H100 SXM5 80GB — identical numbers to the original hard-coded
/// profile, so every pre-zoo report reprices byte-identically.
fn h100_sxm5() -> DeviceProfile {
    DeviceProfile {
        name: "H100-SXM5-80GB".into(),
        class: DeviceClass::DatacenterGpu,
        peak_flops_16bit: 989e12,
        peak_flops_8bit: 1979e12,
        peak_flops_fp32: 67e12,
        tiers: vec![MemoryTier {
            name: "HBM3".into(),
            capacity: 80e9,
            bandwidth: 3.35e12,
            peak_fraction: 0.85,
            weights_resident: false,
        }],
        llc_bytes: 50e6,
        kernel_launch_s: 4e-6,
        num_sms: 132,
        gemm_peak_fraction: 0.72,
        ports: vec![
            InterconnectPort {
                name: "nvlink4".into(),
                link: Interconnect::nvlink4(),
            },
            InterconnectPort {
                name: "pcie-gen5-x16".into(),
                link: Interconnect::pcie_gen5(),
            },
        ],
        power: PowerPrice {
            tdp_w: 700.0,
            price_per_hour_usd: 3.50,
        },
    }
}

/// Cerebras CS-3 (WSE-3) running a cloud model replica with weights
/// resident on-wafer. Capacity reflects the external MemoryX-backed
/// weight store rather than a per-die HBM stack.
fn cs3() -> DeviceProfile {
    DeviceProfile {
        name: "CS-3".into(),
        class: DeviceClass::WaferScale,
        peak_flops_16bit: 25e15,
        peak_flops_8bit: 50e15,
        peak_flops_fp32: 12e15,
        tiers: vec![MemoryTier {
            name: "on-wafer SRAM".into(),
            capacity: 1.2e12,
            bandwidth: 1.2e15,
            peak_fraction: 0.80,
            weights_resident: true,
        }],
        llc_bytes: 44e9, // on-wafer SRAM doubles as the LLC
        kernel_launch_s: 1.5e-6,
        num_sms: 900_000 / 1024, // ~cores grouped per tile region
        gemm_peak_fraction: 0.45,
        ports: vec![InterconnectPort {
            name: "swarmx".into(),
            link: Interconnect {
                bandwidth: 1.2e12,
                latency: 1e-6,
            },
        }],
        power: PowerPrice {
            tdp_w: 23_000.0,
            price_per_hour_usd: 90.0, // modeled amortised system rate; no public rental price
        },
    }
}

/// NVIDIA GeForce RTX 4090 24GB — the consumer PCIe class.
fn rtx_4090() -> DeviceProfile {
    DeviceProfile {
        name: "RTX-4090-24GB".into(),
        class: DeviceClass::ConsumerGpu,
        peak_flops_16bit: 165.2e12,
        peak_flops_8bit: 330.3e12,
        peak_flops_fp32: 82.6e12,
        tiers: vec![MemoryTier {
            name: "GDDR6X".into(),
            capacity: 24e9,
            bandwidth: 1.008e12,
            peak_fraction: 0.85,
            weights_resident: false,
        }],
        llc_bytes: 72e6,
        kernel_launch_s: 5e-6,
        num_sms: 128,
        gemm_peak_fraction: 0.65, // consumer clocks/cooling sustain less than SXM parts
        ports: vec![InterconnectPort {
            name: "pcie-gen4-x16".into(),
            link: Interconnect {
                bandwidth: 32e9,
                latency: 10e-6,
            },
        }],
        power: PowerPrice {
            tdp_w: 450.0,
            price_per_hour_usd: 0.35,
        },
    }
}

/// Apple Mac Studio (M2 Ultra, 192GB) — the unified-memory class: modest
/// shader-core compute (no tensor pipes, so all precisions peak alike and
/// quantization only saves bandwidth), but a very large unified weight
/// tier.
fn mac_m2_ultra() -> DeviceProfile {
    DeviceProfile {
        name: "Mac-M2-Ultra-192GB".into(),
        class: DeviceClass::UnifiedMemory,
        peak_flops_16bit: 27.2e12,
        peak_flops_8bit: 27.2e12,
        peak_flops_fp32: 27.2e12,
        tiers: vec![MemoryTier {
            name: "unified LPDDR5".into(),
            capacity: 192e9,
            bandwidth: 800e9,
            peak_fraction: 0.90,
            weights_resident: false,
        }],
        llc_bytes: 96e6, // 2x 48MB SLC
        kernel_launch_s: 8e-6,
        num_sms: 76, // GPU cores
        gemm_peak_fraction: 0.70,
        ports: vec![InterconnectPort {
            name: "thunderbolt4".into(),
            link: Interconnect {
                bandwidth: 5e9,
                latency: 20e-6,
            },
        }],
        power: PowerPrice {
            tdp_w: 295.0,
            price_per_hour_usd: 1.10,
        },
    }
}

/// NVIDIA Jetson AGX Orin 64GB — the edge SoC class: tensor cores but
/// LPDDR5 bandwidth two orders below HBM, shared with the CPU.
fn jetson_agx_orin() -> DeviceProfile {
    DeviceProfile {
        name: "Jetson-AGX-Orin-64GB".into(),
        class: DeviceClass::EdgeSoc,
        peak_flops_16bit: 42.5e12,
        peak_flops_8bit: 85e12,
        peak_flops_fp32: 5.3e12,
        tiers: vec![MemoryTier {
            name: "unified LPDDR5".into(),
            capacity: 64e9,
            bandwidth: 204.8e9,
            peak_fraction: 0.80,
            weights_resident: false,
        }],
        llc_bytes: 4e6,
        kernel_launch_s: 9e-6,
        num_sms: 16,
        gemm_peak_fraction: 0.60,
        ports: vec![InterconnectPort {
            name: "pcie-gen4-x8".into(),
            link: Interconnect {
                bandwidth: 16e9,
                latency: 12e-6,
            },
        }],
        power: PowerPrice {
            tdp_w: 60.0,
            price_per_hour_usd: 0.10,
        },
    }
}

/// The device zoo, in fixed registry order (datacenter, wafer-scale,
/// consumer, unified-memory, edge). The order is part of the deterministic
/// report contract — new devices append.
pub fn zoo() -> Vec<DeviceProfile> {
    vec![
        h100_sxm5(),
        cs3(),
        rtx_4090(),
        mac_m2_ultra(),
        jetson_agx_orin(),
    ]
}

/// Look up a zoo profile by name. Matching ignores case and punctuation
/// and accepts common shorthand ("h100", "cs3", "4090", "mac", "jetson").
pub fn profile(name: &str) -> Option<DeviceProfile> {
    let normalized: String = name
        .chars()
        .filter(|c| c.is_ascii_alphanumeric())
        .collect::<String>()
        .to_ascii_lowercase();
    let canonical = match normalized.as_str() {
        "h100" | "h100sxm5" | "h100sxm580gb" => "H100-SXM5-80GB",
        "cs3" | "wse3" => "CS-3",
        "4090" | "rtx4090" | "rtx409024gb" => "RTX-4090-24GB",
        "mac" | "m2ultra" | "macm2ultra" | "macm2ultra192gb" => "Mac-M2-Ultra-192GB",
        "jetson" | "orin" | "agxorin" | "jetsonagxorin64gb" => "Jetson-AGX-Orin-64GB",
        _ => return None,
    };
    zoo().into_iter().find(|d| d.name == canonical)
}

/// One point-to-point / collective fabric between devices.
#[derive(Debug, Clone, Copy, PartialEq, ToJson, FromJson)]
pub struct Interconnect {
    /// Per-device injection bandwidth (B/s) usable by collectives.
    pub bandwidth: f64,
    /// Per-hop latency (s).
    pub latency: f64,
}

impl Interconnect {
    /// 4th-generation NVLink within an HGX H100 node.
    pub fn nvlink4() -> Self {
        Self {
            bandwidth: 450e9,
            latency: 3e-6,
        }
    }

    /// PCIe Gen5 x16 fallback fabric.
    pub fn pcie_gen5() -> Self {
        Self {
            bandwidth: 55e9,
            latency: 8e-6,
        }
    }

    /// InfiniBand NDR (400 Gb/s per port) inter-node fabric.
    pub fn infiniband_ndr() -> Self {
        Self {
            bandwidth: 50e9,
            latency: 12e-6,
        }
    }
}

/// A set of identical devices joined by an intra-node fabric, optionally
/// spanning multiple nodes over a slower inter-node fabric.
#[derive(Debug, Clone, PartialEq, ToJson, FromJson)]
pub struct Cluster {
    pub device: DeviceProfile,
    pub num_devices: usize,
    /// Intra-node fabric.
    pub link: Interconnect,
    /// Devices per node; `num_devices` when single-node.
    pub devices_per_node: usize,
    /// Inter-node fabric (unused when single-node).
    pub inter_link: Interconnect,
}

impl Cluster {
    /// `n` H100s inside one NVLink node (the paper's 1–4 GPU settings).
    pub fn h100_node(n: usize) -> Self {
        assert!(n >= 1, "cluster needs at least one device");
        Self {
            device: h100_sxm5(),
            num_devices: n,
            link: Interconnect::nvlink4(),
            devices_per_node: n,
            inter_link: Interconnect::infiniband_ndr(),
        }
    }

    /// `nodes` NVLink nodes of `gpus_per_node` H100s joined by InfiniBand.
    pub fn h100_multinode(nodes: usize, gpus_per_node: usize) -> Self {
        assert!(nodes >= 1 && gpus_per_node >= 1);
        Self {
            device: h100_sxm5(),
            num_devices: nodes * gpus_per_node,
            link: Interconnect::nvlink4(),
            devices_per_node: gpus_per_node,
            inter_link: Interconnect::infiniband_ndr(),
        }
    }

    /// A single CS-3.
    pub fn cs3() -> Self {
        let link = Interconnect {
            bandwidth: 1.2e12,
            latency: 1e-6,
        };
        Self {
            device: cs3(),
            num_devices: 1,
            link,
            devices_per_node: 1,
            inter_link: link,
        }
    }

    /// `n` devices of an arbitrary profile in one node, joined by the
    /// profile's default port fabric.
    pub fn uniform(device: DeviceProfile, n: usize) -> Self {
        assert!(n >= 1, "cluster needs at least one device");
        let link = device.default_link();
        Self {
            device,
            num_devices: n,
            link,
            devices_per_node: n,
            inter_link: link,
        }
    }

    /// Aggregate memory capacity across devices (B).
    pub fn total_capacity(&self) -> f64 {
        self.device.mem_capacity() * self.num_devices as f64
    }

    /// The fabric that bottlenecks a collective over `group_size` devices:
    /// the inter-node link once the group spans nodes.
    pub fn effective_link(&self, group_size: usize) -> Interconnect {
        if group_size > self.devices_per_node {
            self.inter_link
        } else {
            self.link
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn h100_datasheet_values() {
        let d = profile("h100").unwrap();
        assert_eq!(d.peak_flops(Precision::F16), 989e12);
        assert_eq!(d.peak_flops(Precision::Fp8E4M3), 1979e12);
        assert!(d.peak_flops(Precision::F32) < d.peak_flops(Precision::F16));
        assert_eq!(d.mem_capacity(), 80e9);
        assert_eq!(d.class, DeviceClass::DatacenterGpu);
    }

    /// Pinned identity: the zoo H100/CS-3 records carry exactly the
    /// numbers of the original hard-coded constructors, so all 27
    /// pre-zoo experiments reprice byte-identically.
    #[test]
    fn h100_and_cs3_are_exact_legacy_identities() {
        let h = profile("H100-SXM5-80GB").unwrap();
        assert_eq!(h.peak_flops_16bit, 989e12);
        assert_eq!(h.peak_flops_8bit, 1979e12);
        assert_eq!(h.peak_flops_fp32, 67e12);
        assert_eq!(h.mem_bandwidth(), 3.35e12);
        assert_eq!(h.mem_capacity(), 80e9);
        assert_eq!(h.llc_bytes, 50e6);
        assert_eq!(h.kernel_launch_s, 4e-6);
        assert_eq!(h.num_sms, 132);
        assert!(!h.weights_stationary());
        assert_eq!(h.gemm_peak_fraction, 0.72);
        assert_eq!(h.sustained_bandwidth(), 3.35e12 * 0.85);

        let c = profile("cs3").unwrap();
        assert_eq!(c.peak_flops_16bit, 25e15);
        assert_eq!(c.peak_flops_8bit, 50e15);
        assert_eq!(c.peak_flops_fp32, 12e15);
        assert_eq!(c.mem_bandwidth(), 1.2e15);
        assert_eq!(c.mem_capacity(), 1.2e12);
        assert_eq!(c.llc_bytes, 44e9);
        assert_eq!(c.kernel_launch_s, 1.5e-6);
        assert_eq!(c.num_sms, 900_000 / 1024);
        assert!(c.weights_stationary());
        assert_eq!(c.gemm_peak_fraction, 0.45);
        assert_eq!(c.sustained_bandwidth(), 1.2e15 * 0.80);
    }

    #[test]
    fn fp8_doubles_peak_on_h100() {
        let d = profile("h100").unwrap();
        let ratio = d.peak_flops(Precision::Fp8E4M3) / d.peak_flops(Precision::F16);
        assert!((ratio - 2.0).abs() < 0.01);
    }

    #[test]
    fn cs3_is_weight_stationary_with_huge_bandwidth() {
        let c = profile("cs3").unwrap();
        let h = profile("h100").unwrap();
        assert!(c.weights_stationary());
        assert!(!h.weights_stationary());
        assert!(c.mem_bandwidth() > 100.0 * h.mem_bandwidth());
    }

    #[test]
    fn zoo_covers_all_classes_in_fixed_order() {
        let z = zoo();
        let classes: Vec<&str> = z.iter().map(|d| d.class.label()).collect();
        assert_eq!(
            classes,
            [
                "datacenter-gpu",
                "wafer-scale",
                "consumer-gpu",
                "unified-memory",
                "edge-soc"
            ]
        );
        // Repeated registry calls are deterministic.
        assert_eq!(z, zoo());
    }

    #[test]
    fn profile_lookup_accepts_aliases_and_case() {
        for (alias, name) in [
            ("h100", "H100-SXM5-80GB"),
            ("H100-SXM5-80GB", "H100-SXM5-80GB"),
            ("CS-3", "CS-3"),
            ("4090", "RTX-4090-24GB"),
            ("rtx4090", "RTX-4090-24GB"),
            ("Mac", "Mac-M2-Ultra-192GB"),
            ("jetson", "Jetson-AGX-Orin-64GB"),
            ("Orin", "Jetson-AGX-Orin-64GB"),
        ] {
            assert_eq!(profile(alias).map(|d| d.name), Some(name.to_string()));
        }
        assert!(profile("tpu").is_none());
    }

    #[test]
    fn profiles_round_trip_through_moe_json() {
        for d in zoo() {
            let text = moe_json::to_string(&d.to_json());
            let parsed = moe_json::parse(&text).expect("round-trip parse");
            let back = DeviceProfile::from_json(&parsed).expect("round-trip decode");
            assert_eq!(back, d, "{} must round-trip", d.name);
        }
    }

    #[test]
    fn every_zoo_profile_validates() {
        for d in zoo() {
            assert_eq!(d.validate(), Ok(()), "{}", d.name);
        }
    }

    #[test]
    fn validate_rejects_unpriceable_profiles() {
        type Break = fn(&mut DeviceProfile);
        let ok = profile("4090").unwrap();
        let broken: [(&str, Break); 10] = [
            ("needs a name", |d| d.name.clear()),
            ("no memory tier", |d| d.tiers.clear()),
            ("zero compute", |d| d.peak_flops_8bit = 0.0),
            ("NaN compute", |d| d.peak_flops_16bit = f64::NAN),
            ("zero capacity", |d| d.tiers[0].capacity = 0.0),
            ("negative bandwidth", |d| d.tiers[0].bandwidth = -1.0),
            ("peak fraction above 1", |d| d.tiers[0].peak_fraction = 1.5),
            ("zero GEMM fraction", |d| d.gemm_peak_fraction = 0.0),
            ("no SMs", |d| d.num_sms = 0),
            ("negative launch", |d| d.kernel_launch_s = -1e-6),
        ];
        for (what, breaks) in broken {
            let mut d = ok.clone();
            breaks(&mut d);
            assert!(d.validate().is_err(), "{what} must be rejected");
        }
    }

    #[test]
    fn scaled_bandwidth_only_touches_tiers() {
        let base = profile("4090").unwrap();
        let slow = base.with_scaled_bandwidth(0.25);
        assert_eq!(slow.mem_bandwidth(), base.mem_bandwidth() * 0.25);
        assert_eq!(slow.mem_capacity(), base.mem_capacity());
        assert_eq!(slow.peak_flops_16bit, base.peak_flops_16bit);
        assert_eq!(slow.power, base.power);
    }

    #[test]
    fn cluster_capacity_scales() {
        assert_eq!(Cluster::h100_node(4).total_capacity(), 320e9);
    }

    #[test]
    fn uniform_cluster_uses_default_port() {
        let c = Cluster::uniform(profile("4090").unwrap(), 2);
        assert_eq!(c.num_devices, 2);
        assert_eq!(c.link.bandwidth, 32e9);
        assert_eq!(c.total_capacity(), 48e9);
    }

    #[test]
    fn sustained_below_peak() {
        let d = profile("h100").unwrap();
        assert!(d.sustained_flops(Precision::F16) < d.peak_flops(Precision::F16));
        assert!(d.sustained_bandwidth() < d.mem_bandwidth());
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn empty_cluster_rejected() {
        let _ = Cluster::h100_node(0);
    }
}
