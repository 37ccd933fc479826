//! # iwc-workloads
//!
//! The workload suite of the paper (Table 1), expressed as kernels in the
//! `iwc-isa` DSL with host-side input generation and result checking:
//!
//! * [`coherent`] — high-SIMD-efficiency kernels (vector add, SAXPY, matrix
//!   multiply, transpose, Black-Scholes, DCT, …) that intra-warp compaction
//!   must leave untouched;
//! * [`rodinia`] — the divergent Rodinia-class kernels of Fig. 12 (BFS,
//!   HotSpot, LavaMD, Needleman-Wunsch, particle filter, …);
//! * [`raytrace`] — primary-ray and ambient-occlusion ray tracing over
//!   synthetic scenes, in SIMD8 and SIMD16 variants (Fig. 11);
//! * [`micro`] — the divergence micro-benchmarks of Fig. 8 and Table 2.
//!
//! Every workload builds into a [`Built`]: a launch plus its initialized
//! memory image and an optional functional check, so the same workload can
//! be replayed under every compaction mode.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod coherent;
pub mod hash;
pub mod imaging;
pub mod micro;
pub mod raytrace;
pub mod rodinia;
pub mod suite;
pub mod util;

use iwc_sim::{simulate, GpuConfig, Launch, MemoryImage, SimResult, SimulateError};

/// A functional result check run against the post-simulation memory image.
pub type Check = Box<dyn Fn(&MemoryImage) -> Result<(), String> + Send + Sync>;

/// A fully prepared workload: kernel launch, initialized inputs, optional
/// output check.
pub struct Built {
    /// Workload name (Table 1 style).
    pub name: String,
    /// The kernel launch.
    pub launch: Launch,
    /// Initialized global memory.
    pub img: MemoryImage,
    /// Optional functional check.
    pub check: Option<Check>,
}

impl std::fmt::Debug for Built {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Built({}, global={}, wg={}, simd={})",
            self.name,
            self.launch.global_size,
            self.launch.wg_size,
            self.launch.program.simd_width()
        )
    }
}

impl Built {
    /// Runs the workload on a fresh copy of its memory image.
    ///
    /// # Errors
    ///
    /// Propagates [`SimulateError`] from the simulator.
    pub fn run(&self, cfg: &GpuConfig) -> Result<(SimResult, MemoryImage), SimulateError> {
        let mut img = self.img.clone();
        let r = simulate(cfg, &self.launch, &mut img)?;
        Ok((r, img))
    }

    /// Runs the workload and applies its functional check.
    ///
    /// # Errors
    ///
    /// Returns the simulator error or the check failure message.
    pub fn run_checked(&self, cfg: &GpuConfig) -> Result<SimResult, String> {
        let (r, img) = self.run(cfg).map_err(|e| e.to_string())?;
        if let Some(check) = &self.check {
            check(&img).map_err(|e| format!("{}: {e}", self.name))?;
        }
        Ok(r)
    }

    /// Sweeps the workload across compaction engines (checked variant of
    /// [`iwc_sim::Gpu::run_modes`]): every engine runs cold against a
    /// fresh copy of the inputs and must pass the functional check, so a
    /// mode can never *look* faster by computing the wrong answer.
    ///
    /// # Errors
    ///
    /// Returns the first simulator error or check failure.
    pub fn run_modes(
        &self,
        cfg: &GpuConfig,
        engines: &[iwc_compaction::EngineId],
    ) -> Result<Vec<SimResult>, String> {
        engines
            .iter()
            .map(|&e| self.run_checked(&cfg.with_compaction(e)))
            .collect()
    }
}

/// Workload category for reporting (the paper's coherent / divergent split,
/// Fig. 3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Category {
    /// SIMD efficiency ≥ 95 %.
    Coherent,
    /// SIMD efficiency < 95 %.
    Divergent,
}

/// An entry in the simulated-workload catalog.
pub struct CatalogEntry {
    /// Table 1 name.
    pub name: &'static str,
    /// Expected category.
    pub category: Category,
    /// Builder (scale ≈ problem-size knob; 1 = test-sized).
    pub build: fn(u32) -> Built,
}

/// All simulated workloads, in Fig. 3 presentation order (coherent block
/// first, then divergent).
pub fn catalog() -> Vec<CatalogEntry> {
    use Category::*;
    vec![
        // ---- coherent ----
        CatalogEntry {
            name: "VA",
            category: Coherent,
            build: coherent::vecadd,
        },
        CatalogEntry {
            name: "DP",
            category: Coherent,
            build: coherent::dot_product,
        },
        CatalogEntry {
            name: "MVM",
            category: Coherent,
            build: coherent::mvm,
        },
        CatalogEntry {
            name: "MM",
            category: Coherent,
            build: coherent::matmul,
        },
        CatalogEntry {
            name: "Trans-N",
            category: Coherent,
            build: coherent::transpose,
        },
        CatalogEntry {
            name: "Bscholes-N",
            category: Coherent,
            build: coherent::blackscholes,
        },
        CatalogEntry {
            name: "DCT8",
            category: Coherent,
            build: coherent::dct8,
        },
        CatalogEntry {
            name: "MT",
            category: Coherent,
            build: coherent::mersenne,
        },
        CatalogEntry {
            name: "SCnv",
            category: Coherent,
            build: coherent::convolution,
        },
        CatalogEntry {
            name: "BP",
            category: Coherent,
            build: coherent::backprop,
        },
        CatalogEntry {
            name: "BF",
            category: Coherent,
            build: imaging::box_filter,
        },
        CatalogEntry {
            name: "SblFr",
            category: Coherent,
            build: imaging::sobel,
        },
        CatalogEntry {
            name: "DWTH",
            category: Coherent,
            build: imaging::haar_dwt,
        },
        CatalogEntry {
            name: "Gnoise",
            category: Coherent,
            build: imaging::gaussian_noise,
        },
        CatalogEntry {
            name: "RGauss",
            category: Coherent,
            build: imaging::recursive_gaussian,
        },
        CatalogEntry {
            name: "BOP",
            category: Coherent,
            build: suite::binomial_option,
        },
        CatalogEntry {
            name: "FWHT",
            category: Coherent,
            build: suite::fwht,
        },
        CatalogEntry {
            name: "URNG",
            category: Coherent,
            build: suite::urng,
        },
        CatalogEntry {
            name: "Bsort",
            category: Coherent,
            build: suite::bitonic_step,
        },
        CatalogEntry {
            name: "Trd",
            category: Coherent,
            build: suite::tridiagonal,
        },
        CatalogEntry {
            name: "ScLA",
            category: Coherent,
            build: suite::scan_large_array,
        },
        CatalogEntry {
            name: "QRndSq",
            category: Coherent,
            build: suite::quasi_random,
        },
        CatalogEntry {
            name: "AES",
            category: Coherent,
            build: suite::aes_round,
        },
        CatalogEntry {
            name: "DXTC",
            category: Coherent,
            build: suite::dxtc,
        },
        // ---- divergent ----
        CatalogEntry {
            name: "BFS",
            category: Divergent,
            build: rodinia::bfs,
        },
        CatalogEntry {
            name: "HtS",
            category: Divergent,
            build: rodinia::hotspot,
        },
        CatalogEntry {
            name: "LavaMD",
            category: Divergent,
            build: rodinia::lavamd,
        },
        CatalogEntry {
            name: "NW",
            category: Divergent,
            build: rodinia::needleman_wunsch,
        },
        CatalogEntry {
            name: "Part",
            category: Divergent,
            build: rodinia::particle_filter,
        },
        CatalogEntry {
            name: "Kmeans",
            category: Divergent,
            build: rodinia::kmeans,
        },
        CatalogEntry {
            name: "Path",
            category: Divergent,
            build: rodinia::pathfinder,
        },
        CatalogEntry {
            name: "Gauss",
            category: Divergent,
            build: rodinia::gaussian,
        },
        CatalogEntry {
            name: "SRD",
            category: Divergent,
            build: rodinia::srad,
        },
        CatalogEntry {
            name: "EV",
            category: Divergent,
            build: rodinia::eigenvalue,
        },
        CatalogEntry {
            name: "Bsearch",
            category: Divergent,
            build: suite::bsearch,
        },
        CatalogEntry {
            name: "FW",
            category: Divergent,
            build: suite::floyd_warshall,
        },
        CatalogEntry {
            name: "KNN",
            category: Divergent,
            build: suite::knn,
        },
        CatalogEntry {
            name: "MCA",
            category: Divergent,
            build: suite::monte_carlo,
        },
        CatalogEntry {
            name: "HMM",
            category: Divergent,
            build: suite::hmm_viterbi,
        },
        CatalogEntry {
            name: "CFD",
            category: Divergent,
            build: suite::cfd_flux,
        },
        CatalogEntry {
            name: "RT-PR-Conf",
            category: Divergent,
            build: raytrace::primary_conf,
        },
        CatalogEntry {
            name: "RT-PR-AL",
            category: Divergent,
            build: raytrace::primary_al,
        },
        CatalogEntry {
            name: "RT-PR-BL",
            category: Divergent,
            build: raytrace::primary_bl,
        },
        CatalogEntry {
            name: "RT-PR-WM",
            category: Divergent,
            build: raytrace::primary_wm,
        },
        CatalogEntry {
            name: "RT-AO-AL8",
            category: Divergent,
            build: raytrace::ao_al8,
        },
        CatalogEntry {
            name: "RT-AO-BL8",
            category: Divergent,
            build: raytrace::ao_bl8,
        },
        CatalogEntry {
            name: "RT-AO-WM8",
            category: Divergent,
            build: raytrace::ao_wm8,
        },
        CatalogEntry {
            name: "RT-AO-AL16",
            category: Divergent,
            build: raytrace::ao_al16,
        },
        CatalogEntry {
            name: "RT-AO-BL16",
            category: Divergent,
            build: raytrace::ao_bl16,
        },
        CatalogEntry {
            name: "RT-AO-WM16",
            category: Divergent,
            build: raytrace::ao_wm16,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_unique() {
        let c = catalog();
        let mut names: Vec<_> = c.iter().map(|e| e.name).collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate catalog names");
        assert!(n >= 30, "catalog should cover the paper's workload classes");
    }
}
