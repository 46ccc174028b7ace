//! The 50-matrix evaluation corpus.
//!
//! The paper (§III) curates 50 matrices from SuiteSparse, Konect and Web
//! Data Commons with a bias-free selection process, spanning social
//! networks, hyperlink graphs, circuit simulation, non-linear
//! optimization, CFD, road networks, protein k-mers, knowledge bases,
//! electromagnetics and DNA electrophoresis. We mirror that *structural*
//! diversity with deterministic synthetic generators (see
//! [`crate::generators`]); each entry names the paper-corpus family it
//! stands in for.
//!
//! Sizes are scaled down by the same factor as the simulated L2 cache
//! (`commorder-gpumodel` scales the A6000's 6 MB L2 to 128 KiB, factor 48)
//! so the input-vector-footprint : cache-capacity ratio — the quantity
//! that makes reordering matter (§II) — stays in the paper's regime:
//! the paper's 1.5 M-row minimum becomes a 32 K-row minimum here.
//!
//! The **publish order** models the paper's Observation 3 ("ORIGINAL
//! ordering can be a misleading baseline"): for some entries the ORIGINAL
//! order is whatever the generator emits (community-sorted for SBM —
//! the sk-2005 case), for others the IDs are scrambled at publish time
//! (the pld-arc case).

use commorder_sparse::{CsrMatrix, Permutation, SparseError};

use crate::generators::{
    Banded, BarabasiAlbert, CommunityHub, ErdosRenyi, Grid2d, Grid3d, HubAndSpoke, KmerChain,
    PlantedPartition, Rmat, WattsStrogatz,
};
use crate::rng::Rng;
use crate::stream::{stream_undirected_csr, StreamedCommunity, StreamedKmerChain, StreamedRmat};

/// The application domain a corpus entry stands in for (paper §III).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Domain {
    /// Social networks (com-LiveJournal, com-Orkut, twitter, ...).
    Social,
    /// Web / hyperlink crawls (sk-2005, pld-arc, ...).
    Web,
    /// Road networks (road_usa, europe_osm, ...).
    Road,
    /// Circuit simulation (circuit5M, Freescale, ...).
    Circuit,
    /// Computational fluid dynamics meshes (HV15R, ...).
    Cfd,
    /// Non-linear optimization (nlpkkt, ...).
    Optimization,
    /// Protein k-mer / DNA assembly graphs (kmer_V1r, ...).
    Kmer,
    /// Knowledge bases / citation graphs (wikipedia, patents, ...).
    Knowledge,
    /// Network traffic traces (mawi).
    NetworkTrace,
    /// Electromagnetics / DNA electrophoresis (banded physics).
    Physics,
    /// Small-world networks.
    SmallWorld,
    /// Pure random control (no exploitable structure).
    Random,
}

impl Domain {
    /// Short lowercase label used in table output.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Domain::Social => "social",
            Domain::Web => "web",
            Domain::Road => "road",
            Domain::Circuit => "circuit",
            Domain::Cfd => "cfd",
            Domain::Optimization => "optim",
            Domain::Kmer => "kmer",
            Domain::Knowledge => "knowledge",
            Domain::NetworkTrace => "nettrace",
            Domain::Physics => "physics",
            Domain::SmallWorld => "smallworld",
            Domain::Random => "random",
        }
    }
}

/// How the "publisher" of the dataset ordered the vertex IDs
/// (Observation 3: this is an arbitrary choice, not a matrix property).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PublishOrder {
    /// IDs exactly as the generator emitted them (for SBM-like generators
    /// this is community-sorted — the sk-2005 "publisher already reordered
    /// it" case).
    AsGenerated,
    /// IDs scrambled with a random permutation at publish time (the
    /// pld-arc case).
    Scrambled,
}

/// One generator configuration (sum type over every generator family).
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum GeneratorSpec {
    /// Erdős–Rényi random graph.
    ErdosRenyi(ErdosRenyi),
    /// R-MAT power-law graph.
    Rmat(Rmat),
    /// Planted-partition community graph.
    PlantedPartition(PlantedPartition),
    /// Community-plus-hubs hybrid.
    CommunityHub(CommunityHub),
    /// Watts–Strogatz small world.
    WattsStrogatz(WattsStrogatz),
    /// Barabási–Albert preferential attachment.
    BarabasiAlbert(BarabasiAlbert),
    /// 2D mesh.
    Grid2d(Grid2d),
    /// 3D mesh.
    Grid3d(Grid3d),
    /// Banded matrix.
    Banded(Banded),
    /// Hub-and-spoke trace graph.
    HubAndSpoke(HubAndSpoke),
    /// Near-degree-2 chain graph.
    KmerChain(KmerChain),
    /// Streamed R-MAT (mega tier; never materializes the edge list).
    StreamedRmat(StreamedRmat),
    /// Streamed planted-community graph (mega tier).
    StreamedCommunity(StreamedCommunity),
    /// Streamed k-mer chain graph (mega tier).
    StreamedKmerChain(StreamedKmerChain),
}

impl GeneratorSpec {
    /// Runs the wrapped generator.
    ///
    /// # Errors
    ///
    /// Propagates the generator's construction errors.
    pub fn generate(&self, seed: u64) -> Result<CsrMatrix, SparseError> {
        match self {
            GeneratorSpec::ErdosRenyi(g) => g.generate(seed),
            GeneratorSpec::Rmat(g) => g.generate(seed),
            GeneratorSpec::PlantedPartition(g) => g.generate(seed),
            GeneratorSpec::CommunityHub(g) => g.generate(seed),
            GeneratorSpec::WattsStrogatz(g) => g.generate(seed),
            GeneratorSpec::BarabasiAlbert(g) => g.generate(seed),
            GeneratorSpec::Grid2d(g) => g.generate(seed),
            GeneratorSpec::Grid3d(g) => g.generate(seed),
            GeneratorSpec::Banded(g) => g.generate(seed),
            GeneratorSpec::HubAndSpoke(g) => g.generate(seed),
            GeneratorSpec::KmerChain(g) => g.generate(seed),
            GeneratorSpec::StreamedRmat(g) => stream_undirected_csr(g, seed),
            GeneratorSpec::StreamedCommunity(g) => stream_undirected_csr(g, seed),
            GeneratorSpec::StreamedKmerChain(g) => stream_undirected_csr(g, seed),
        }
    }
}

/// One matrix of the evaluation corpus.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusEntry {
    /// Unique name (mirrors the naming style of the repositories).
    pub name: &'static str,
    /// Domain the entry stands in for.
    pub domain: Domain,
    /// Generator configuration.
    pub spec: GeneratorSpec,
    /// Generation seed (fixed per entry; the corpus is deterministic).
    pub seed: u64,
    /// Publisher's ID ordering.
    pub publish: PublishOrder,
}

impl CorpusEntry {
    /// Generates the matrix in its published (ORIGINAL) order.
    ///
    /// # Errors
    ///
    /// Propagates generator/permutation errors (unreachable for the
    /// built-in corpus, which is covered by tests).
    pub fn generate(&self) -> Result<CsrMatrix, SparseError> {
        let m = self.spec.generate(self.seed)?;
        match self.publish {
            PublishOrder::AsGenerated => Ok(m),
            PublishOrder::Scrambled => {
                let mut rng = Rng::new(self.seed ^ 0xC0FF_EE00_D15E_A5E5);
                let mut ids: Vec<u32> = (0..m.n_rows()).collect();
                rng.shuffle(&mut ids);
                let perm = Permutation::from_new_ids(ids)?;
                m.permute_symmetric(&perm)
            }
        }
    }
}

/// Returns the standard 50-entry corpus, in a fixed order.
///
/// Entry names, domains and seeds are stable; regenerating the corpus
/// always produces bit-identical matrices.
#[must_use]
pub fn standard() -> Vec<CorpusEntry> {
    use GeneratorSpec as S;
    use PublishOrder::{AsGenerated, Scrambled};
    let mut v = Vec::with_capacity(50);
    let mut push = |name: &'static str,
                    domain: Domain,
                    spec: GeneratorSpec,
                    seed: u64,
                    publish: PublishOrder| {
        v.push(CorpusEntry {
            name,
            domain,
            spec,
            seed,
            publish,
        });
    };

    // --- Social networks: R-MAT, heavy skew (5) -------------------------
    push(
        "soc-rmat-32k",
        Domain::Social,
        S::Rmat(Rmat::graph500(15, 16.0)),
        101,
        AsGenerated,
    );
    push(
        "soc-rmat-65k",
        Domain::Social,
        S::Rmat(Rmat::graph500(16, 16.0)),
        102,
        AsGenerated,
    );
    push(
        "soc-rmat-131k",
        Domain::Social,
        S::Rmat(Rmat::graph500(17, 12.0)),
        103,
        AsGenerated,
    );
    push(
        "soc-rmat-dense",
        Domain::Social,
        S::Rmat(Rmat::graph500(15, 32.0)),
        104,
        AsGenerated,
    );
    push(
        "soc-rmat-mild",
        Domain::Social,
        S::Rmat(Rmat::mild(16, 14.0)),
        105,
        AsGenerated,
    );

    // --- Social networks: preferential attachment (3) -------------------
    push(
        "soc-pa-65k",
        Domain::Social,
        S::BarabasiAlbert(BarabasiAlbert {
            n: 65_536,
            m: 8,
            scramble_ids: true,
        }),
        111,
        AsGenerated,
    );
    push(
        "soc-pa-100k",
        Domain::Social,
        S::BarabasiAlbert(BarabasiAlbert {
            n: 100_000,
            m: 6,
            scramble_ids: true,
        }),
        112,
        AsGenerated,
    );
    push(
        "soc-pa-heavy",
        Domain::Social,
        S::BarabasiAlbert(BarabasiAlbert {
            n: 49_152,
            m: 16,
            scramble_ids: true,
        }),
        113,
        AsGenerated,
    );

    // --- Web crawls: communities + hubs (6) ------------------------------
    // "sk-2005": publisher shipped it already community-ordered.
    push(
        "web-sk-like",
        Domain::Web,
        S::CommunityHub(CommunityHub {
            n: 98_304,
            communities: 768,
            intra_degree: 12.0,
            hub_fraction: 0.01,
            hub_degree: 24.0,
            mixing: 0.04,
            scramble_ids: false,
        }),
        121,
        AsGenerated,
    );
    // "pld-arc": same structure, carelessly published.
    push(
        "web-pld-like",
        Domain::Web,
        S::CommunityHub(CommunityHub {
            n: 98_304,
            communities: 768,
            intra_degree: 12.0,
            hub_fraction: 0.01,
            hub_degree: 24.0,
            mixing: 0.04,
            scramble_ids: false,
        }),
        121,
        Scrambled,
    );
    push(
        "web-stackex",
        Domain::Web,
        S::CommunityHub(CommunityHub {
            n: 65_536,
            communities: 512,
            intra_degree: 8.0,
            hub_fraction: 0.05,
            hub_degree: 20.0,
            mixing: 0.10,
            scramble_ids: true,
        }),
        123,
        AsGenerated,
    );
    push(
        "web-portal",
        Domain::Web,
        S::CommunityHub(CommunityHub {
            n: 81_920,
            communities: 320,
            intra_degree: 10.0,
            hub_fraction: 0.03,
            hub_degree: 40.0,
            mixing: 0.08,
            scramble_ids: true,
        }),
        124,
        AsGenerated,
    );
    push(
        "web-forum",
        Domain::Web,
        S::CommunityHub(CommunityHub {
            n: 49_152,
            communities: 384,
            intra_degree: 14.0,
            hub_fraction: 0.02,
            hub_degree: 16.0,
            mixing: 0.15,
            scramble_ids: true,
        }),
        125,
        AsGenerated,
    );
    push(
        "web-deep",
        Domain::Web,
        S::CommunityHub(CommunityHub {
            n: 131_072,
            communities: 1024,
            intra_degree: 6.0,
            hub_fraction: 0.008,
            hub_degree: 32.0,
            mixing: 0.05,
            scramble_ids: true,
        }),
        126,
        AsGenerated,
    );

    // --- Optimization / strongly clustered (6) ---------------------------
    push(
        "opt-block-512",
        Domain::Optimization,
        S::PlantedPartition(PlantedPartition::uniform(65_536, 512, 12.0, 0.02)),
        131,
        Scrambled,
    );
    push(
        "opt-block-256",
        Domain::Optimization,
        S::PlantedPartition(PlantedPartition::uniform(65_536, 256, 16.0, 0.01)),
        132,
        Scrambled,
    );
    push(
        "opt-block-1k",
        Domain::Optimization,
        S::PlantedPartition(PlantedPartition::uniform(98_304, 1024, 10.0, 0.03)),
        133,
        Scrambled,
    );
    push(
        "opt-clean",
        Domain::Optimization,
        S::PlantedPartition(PlantedPartition::uniform(49_152, 768, 14.0, 0.005)),
        134,
        AsGenerated,
    );
    push(
        "opt-plaw-sizes",
        Domain::Optimization,
        S::PlantedPartition(PlantedPartition {
            n: 65_536,
            communities: 400,
            intra_degree: 10.0,
            mixing: 0.05,
            size_alpha: Some(1.8),
        }),
        135,
        Scrambled,
    );
    push(
        "opt-mixed",
        Domain::Optimization,
        S::PlantedPartition(PlantedPartition::uniform(81_920, 640, 8.0, 0.20)),
        136,
        Scrambled,
    );

    // --- Road networks (4) ------------------------------------------------
    push(
        "road-grid-64k",
        Domain::Road,
        S::Grid2d(Grid2d {
            width: 320,
            height: 205,
            diagonals: false,
            shortcut_p: 0.02,
            scramble_ids: false,
        }),
        141,
        AsGenerated,
    );
    push(
        "road-grid-messy",
        Domain::Road,
        S::Grid2d(Grid2d {
            width: 320,
            height: 205,
            diagonals: false,
            shortcut_p: 0.02,
            scramble_ids: false,
        }),
        141,
        Scrambled,
    );
    push(
        "road-grid-131k",
        Domain::Road,
        S::Grid2d(Grid2d {
            width: 512,
            height: 256,
            diagonals: false,
            shortcut_p: 0.01,
            scramble_ids: false,
        }),
        143,
        Scrambled,
    );
    push(
        "road-bridges",
        Domain::Road,
        S::Grid2d(Grid2d {
            width: 400,
            height: 240,
            diagonals: false,
            shortcut_p: 0.08,
            scramble_ids: false,
        }),
        144,
        Scrambled,
    );

    // --- CFD meshes (4) ----------------------------------------------------
    push(
        "cfd-cube-40",
        Domain::Cfd,
        S::Grid3d(Grid3d {
            nx: 40,
            ny: 40,
            nz: 40,
            scramble_ids: false,
        }),
        151,
        AsGenerated,
    );
    push(
        "cfd-slab",
        Domain::Cfd,
        S::Grid3d(Grid3d {
            nx: 128,
            ny: 64,
            nz: 12,
            scramble_ids: false,
        }),
        152,
        Scrambled,
    );
    push(
        "cfd-stencil9",
        Domain::Cfd,
        S::Grid2d(Grid2d {
            width: 300,
            height: 220,
            diagonals: true,
            shortcut_p: 0.0,
            scramble_ids: false,
        }),
        153,
        AsGenerated,
    );
    push(
        "cfd-stencil9-messy",
        Domain::Cfd,
        S::Grid2d(Grid2d {
            width: 300,
            height: 220,
            diagonals: true,
            shortcut_p: 0.0,
            scramble_ids: false,
        }),
        153,
        Scrambled,
    );

    // --- Circuit simulation (4) --------------------------------------------
    push(
        "circuit-40k",
        Domain::Circuit,
        S::Banded(Banded {
            n: 40_960,
            band: 48,
            fill_degree: 6.0,
            long_range_p: 0.08,
            scramble_ids: false,
        }),
        161,
        AsGenerated,
    );
    push(
        "circuit-80k",
        Domain::Circuit,
        S::Banded(Banded {
            n: 81_920,
            band: 64,
            fill_degree: 5.0,
            long_range_p: 0.12,
            scramble_ids: false,
        }),
        162,
        AsGenerated,
    );
    push(
        "circuit-messy",
        Domain::Circuit,
        S::Banded(Banded {
            n: 65_536,
            band: 48,
            fill_degree: 6.0,
            long_range_p: 0.10,
            scramble_ids: false,
        }),
        163,
        Scrambled,
    );
    push(
        "circuit-global",
        Domain::Circuit,
        S::Banded(Banded {
            n: 49_152,
            band: 32,
            fill_degree: 5.0,
            long_range_p: 0.30,
            scramble_ids: false,
        }),
        164,
        AsGenerated,
    );

    // --- Electromagnetics / DNA electrophoresis (2) --------------------------
    push(
        "em-wideband",
        Domain::Physics,
        S::Banded(Banded {
            n: 65_536,
            band: 256,
            fill_degree: 10.0,
            long_range_p: 0.02,
            scramble_ids: false,
        }),
        171,
        AsGenerated,
    );
    push(
        "dna-electro",
        Domain::Physics,
        S::Banded(Banded {
            n: 98_304,
            band: 96,
            fill_degree: 7.0,
            long_range_p: 0.01,
            scramble_ids: false,
        }),
        172,
        Scrambled,
    );

    // --- Protein k-mer / DNA assembly (4) -------------------------------------
    push(
        "kmer-65k",
        Domain::Kmer,
        S::KmerChain(KmerChain {
            n: 65_536,
            chains: 64,
            branch_p: 0.05,
            cross_p: 0.01,
            scramble_ids: false,
        }),
        181,
        Scrambled,
    );
    push(
        "kmer-131k",
        Domain::Kmer,
        S::KmerChain(KmerChain {
            n: 131_072,
            chains: 128,
            branch_p: 0.04,
            cross_p: 0.01,
            scramble_ids: false,
        }),
        182,
        Scrambled,
    );
    push(
        "kmer-branchy",
        Domain::Kmer,
        S::KmerChain(KmerChain {
            n: 81_920,
            chains: 80,
            branch_p: 0.15,
            cross_p: 0.02,
            scramble_ids: false,
        }),
        183,
        Scrambled,
    );
    push(
        "kmer-tidy",
        Domain::Kmer,
        S::KmerChain(KmerChain {
            n: 65_536,
            chains: 64,
            branch_p: 0.05,
            cross_p: 0.01,
            scramble_ids: false,
        }),
        184,
        AsGenerated,
    );

    // --- Knowledge bases / citation (3) -----------------------------------------
    push(
        "kb-cite",
        Domain::Knowledge,
        S::BarabasiAlbert(BarabasiAlbert {
            n: 81_920,
            m: 10,
            scramble_ids: true,
        }),
        191,
        AsGenerated,
    );
    push(
        "kb-wiki-like",
        Domain::Knowledge,
        S::CommunityHub(CommunityHub {
            n: 98_304,
            communities: 256,
            intra_degree: 7.0,
            hub_fraction: 0.04,
            hub_degree: 28.0,
            mixing: 0.25,
            scramble_ids: true,
        }),
        192,
        AsGenerated,
    );
    push(
        "kb-patents",
        Domain::Knowledge,
        S::BarabasiAlbert(BarabasiAlbert {
            n: 131_072,
            m: 5,
            scramble_ids: true,
        }),
        193,
        AsGenerated,
    );

    // --- Network traces: the mawi anomaly (2) --------------------------------------
    push(
        "trace-mawi-like",
        Domain::NetworkTrace,
        S::HubAndSpoke(HubAndSpoke {
            n: 65_536,
            hubs: 1,
            hub_coverage: 0.85,
            background_degree: 0.3,
        }),
        201,
        AsGenerated,
    );
    push(
        "trace-sensors",
        Domain::NetworkTrace,
        S::HubAndSpoke(HubAndSpoke {
            n: 49_152,
            hubs: 8,
            hub_coverage: 0.20,
            background_degree: 2.0,
        }),
        202,
        Scrambled,
    );

    // --- Small world (3) --------------------------------------------------------------
    push(
        "sw-ring-65k",
        Domain::SmallWorld,
        S::WattsStrogatz(WattsStrogatz {
            n: 65_536,
            k: 12,
            rewire_p: 0.05,
        }),
        211,
        Scrambled,
    );
    push(
        "sw-ring-100k",
        Domain::SmallWorld,
        S::WattsStrogatz(WattsStrogatz {
            n: 100_000,
            k: 8,
            rewire_p: 0.10,
        }),
        212,
        Scrambled,
    );
    push(
        "sw-chaotic",
        Domain::SmallWorld,
        S::WattsStrogatz(WattsStrogatz {
            n: 49_152,
            k: 16,
            rewire_p: 0.35,
        }),
        213,
        Scrambled,
    );

    // --- Random controls (2) -------------------------------------------------------------
    push(
        "rnd-er-49k",
        Domain::Random,
        S::ErdosRenyi(ErdosRenyi {
            n: 49_152,
            avg_degree: 12.0,
        }),
        221,
        AsGenerated,
    );
    push(
        "rnd-er-sparse",
        Domain::Random,
        S::ErdosRenyi(ErdosRenyi {
            n: 81_920,
            avg_degree: 4.0,
        }),
        222,
        AsGenerated,
    );

    // --- Additional diversity to reach 50 ---------------------------------------------------
    push(
        "soc-rmat-xl",
        Domain::Social,
        S::Rmat(Rmat::graph500(17, 16.0)),
        231,
        AsGenerated,
    );
    push(
        "web-crawl-frontier",
        Domain::Web,
        S::CommunityHub(CommunityHub {
            n: 114_688,
            communities: 896,
            intra_degree: 9.0,
            hub_fraction: 0.015,
            hub_degree: 36.0,
            mixing: 0.06,
            scramble_ids: true,
        }),
        232,
        AsGenerated,
    );
    assert_eq!(v.len(), 50, "standard corpus must have exactly 50 entries");
    v
}

/// A small 8-entry corpus (~2-4 K vertices each) for tests, examples and
/// fast iteration; pair it with `GpuSpec::test_scale()` so the
/// footprint:cache ratio still matches the paper's regime.
#[must_use]
pub fn mini() -> Vec<CorpusEntry> {
    use GeneratorSpec as S;
    use PublishOrder::{AsGenerated, Scrambled};
    vec![
        CorpusEntry {
            name: "mini-rmat",
            domain: Domain::Social,
            spec: S::Rmat(Rmat::graph500(11, 12.0)),
            seed: 301,
            publish: AsGenerated,
        },
        CorpusEntry {
            name: "mini-sbm",
            domain: Domain::Optimization,
            spec: S::PlantedPartition(PlantedPartition::uniform(2048, 32, 10.0, 0.02)),
            seed: 302,
            publish: Scrambled,
        },
        CorpusEntry {
            name: "mini-webhub",
            domain: Domain::Web,
            spec: S::CommunityHub(CommunityHub {
                n: 3072,
                communities: 48,
                intra_degree: 10.0,
                hub_fraction: 0.03,
                hub_degree: 20.0,
                mixing: 0.08,
                scramble_ids: true,
            }),
            seed: 303,
            publish: AsGenerated,
        },
        CorpusEntry {
            name: "mini-grid",
            domain: Domain::Road,
            spec: S::Grid2d(Grid2d {
                width: 64,
                height: 48,
                diagonals: false,
                shortcut_p: 0.02,
                scramble_ids: false,
            }),
            seed: 304,
            publish: Scrambled,
        },
        CorpusEntry {
            name: "mini-banded",
            domain: Domain::Circuit,
            spec: S::Banded(Banded {
                n: 2560,
                band: 24,
                fill_degree: 6.0,
                long_range_p: 0.1,
                scramble_ids: false,
            }),
            seed: 305,
            publish: AsGenerated,
        },
        CorpusEntry {
            name: "mini-kmer",
            domain: Domain::Kmer,
            spec: S::KmerChain(KmerChain {
                n: 4096,
                chains: 16,
                branch_p: 0.05,
                cross_p: 0.01,
                scramble_ids: false,
            }),
            seed: 306,
            publish: Scrambled,
        },
        CorpusEntry {
            name: "mini-mawi",
            domain: Domain::NetworkTrace,
            spec: S::HubAndSpoke(HubAndSpoke {
                n: 3072,
                hubs: 1,
                hub_coverage: 0.85,
                background_degree: 0.3,
            }),
            seed: 307,
            publish: AsGenerated,
        },
        CorpusEntry {
            name: "mini-er",
            domain: Domain::Random,
            spec: S::ErdosRenyi(ErdosRenyi {
                n: 2048,
                avg_degree: 10.0,
            }),
            seed: 308,
            publish: AsGenerated,
        },
    ]
}

/// Returns the mega corpus tier: 1M–4M-row entries generated through
/// the streamed builder ([`crate::stream`]), never materializing an
/// edge list. These approach the paper's real corpus scale (§III tops
/// out at 226M rows) far closer than the 131k-row `standard()` ceiling
/// and are the substrate for the parallel-reordering scaling study.
///
/// All entries publish `AsGenerated`: scrambling happens inside the
/// stream (via a seed-keyed relabel table) because a publish-time
/// permutation would materialize a second full CSR.
#[must_use]
pub fn mega() -> Vec<CorpusEntry> {
    use GeneratorSpec as S;
    use PublishOrder::AsGenerated;
    vec![
        CorpusEntry {
            name: "mega-soc-rmat-1m",
            domain: Domain::Social,
            spec: S::StreamedRmat(StreamedRmat::graph500(20, 8.0)),
            seed: 701,
            publish: AsGenerated,
        },
        CorpusEntry {
            name: "mega-web-comm-2m",
            domain: Domain::Web,
            spec: S::StreamedCommunity(StreamedCommunity {
                n: 1 << 21,
                communities: 8192,
                intra_degree: 6.0,
                mixing: 0.05,
            }),
            seed: 702,
            publish: AsGenerated,
        },
        CorpusEntry {
            name: "mega-kmer-chain-4m",
            domain: Domain::Kmer,
            // A few long contigs among many short fragments, like real
            // assembly graphs: 128 chains of 4096 plus ~57k chains of
            // 64. Short islands quiesce after a few sweeps, but
            // detection keeps sweeping the surviving aggregates of all
            // islands until the 4096-chains converge.
            spec: S::StreamedKmerChain(StreamedKmerChain {
                n: 1 << 22,
                chain_len: 4096,
                short_len: 64,
                long_vertices: 1 << 19,
                branch_p: 0.05,
            }),
            seed: 703,
            publish: AsGenerated,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn standard_has_exactly_fifty_unique_names() {
        let corpus = standard();
        assert_eq!(corpus.len(), 50);
        let names: HashSet<_> = corpus.iter().map(|e| e.name).collect();
        assert_eq!(names.len(), 50, "duplicate corpus names");
    }

    #[test]
    fn standard_spans_many_domains() {
        let corpus = standard();
        let domains: HashSet<_> = corpus.iter().map(|e| e.domain).collect();
        assert!(domains.len() >= 10, "domains = {}", domains.len());
    }

    #[test]
    fn mini_generates_and_is_deterministic() {
        for entry in mini() {
            let a = entry.generate().unwrap();
            let b = entry.generate().unwrap();
            assert_eq!(a, b, "{} not deterministic", entry.name);
            assert!(a.n_rows() >= 1024, "{} too small", entry.name);
            assert!(a.is_symmetric(), "{} not symmetric", entry.name);
        }
    }

    #[test]
    fn scrambled_twin_differs_from_as_generated() {
        // web-sk-like and web-pld-like share spec and seed; only the
        // publish order differs (Observation 3's sk-2005 vs pld-arc pair).
        let corpus = standard();
        let sk = corpus.iter().find(|e| e.name == "web-sk-like").unwrap();
        let pld = corpus.iter().find(|e| e.name == "web-pld-like").unwrap();
        assert_eq!(sk.spec, pld.spec);
        assert_eq!(sk.seed, pld.seed);
        assert_ne!(sk.publish, pld.publish);
    }

    #[test]
    fn corpus_sizes_respect_scaled_cache_floor() {
        // Paper floor: 1.5M rows against a 6MB L2. Scaled by 48 the floor
        // is 32768 rows — every standard entry must meet it.
        for entry in standard() {
            let n = match &entry.spec {
                GeneratorSpec::ErdosRenyi(g) => g.n,
                GeneratorSpec::Rmat(g) => 1 << g.scale,
                GeneratorSpec::PlantedPartition(g) => g.n,
                GeneratorSpec::CommunityHub(g) => g.n,
                GeneratorSpec::WattsStrogatz(g) => g.n,
                GeneratorSpec::BarabasiAlbert(g) => g.n,
                GeneratorSpec::Grid2d(g) => g.width * g.height,
                GeneratorSpec::Grid3d(g) => g.nx * g.ny * g.nz,
                GeneratorSpec::Banded(g) => g.n,
                GeneratorSpec::HubAndSpoke(g) => g.n,
                GeneratorSpec::KmerChain(g) => g.n,
                GeneratorSpec::StreamedRmat(g) => 1 << g.scale,
                GeneratorSpec::StreamedCommunity(g) => g.n,
                GeneratorSpec::StreamedKmerChain(g) => g.n,
            };
            assert!(
                n >= 32_768,
                "{}: n = {n} below the scaled 32768 floor",
                entry.name
            );
        }
    }

    #[test]
    fn mega_tier_is_streamed_and_million_row() {
        // Generation itself is covered by the release-mode bench and the
        // CI tripwire; the unit suite only pins the tier's shape.
        let tier = mega();
        assert!(!tier.is_empty());
        for entry in &tier {
            let n = match &entry.spec {
                GeneratorSpec::StreamedRmat(g) => 1u32 << g.scale,
                GeneratorSpec::StreamedCommunity(g) => g.n,
                GeneratorSpec::StreamedKmerChain(g) => g.n,
                other => panic!("{}: mega entries must stream, got {other:?}", entry.name),
            };
            assert!(n >= 1 << 20, "{}: n = {n} below 1M", entry.name);
            assert_eq!(entry.publish, PublishOrder::AsGenerated, "{}", entry.name);
        }
        let names: HashSet<_> = tier.iter().map(|e| e.name).collect();
        assert_eq!(names.len(), tier.len());
    }

    #[test]
    fn a_sample_of_standard_entries_generates() {
        // Generating all 50 here would slow the unit suite; the full pass
        // is covered by integration tests and the bench harness.
        let corpus = standard();
        for name in ["soc-rmat-32k", "opt-block-512", "trace-mawi-like"] {
            let entry = corpus.iter().find(|e| e.name == name).unwrap();
            let m = entry.generate().unwrap();
            assert!(m.nnz() > 10_000, "{name} suspiciously sparse");
        }
    }
}

/// An externally supplied matrix usable alongside the synthetic corpus:
/// a name plus the loaded matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct ExternalCase {
    /// File stem of the source `.mtx` file.
    pub name: String,
    /// The loaded matrix.
    pub matrix: CsrMatrix,
}

/// Loads every `.mtx` file in `dir` (non-recursive, sorted by file name)
/// — the drop-in path for users with real SuiteSparse downloads.
///
/// # Errors
///
/// Returns [`SparseError::Io`] for directory/read failures and
/// [`SparseError::Parse`] for malformed files (the offending file's name
/// is included in the message).
pub fn from_directory(dir: &std::path::Path) -> Result<Vec<ExternalCase>, SparseError> {
    let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| SparseError::Io(format!("{}: {e}", dir.display())))?
        .filter_map(Result::ok)
        .map(|entry| entry.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "mtx"))
        .collect();
    paths.sort();
    let mut cases = Vec::with_capacity(paths.len());
    for path in paths {
        let file = std::fs::File::open(&path)
            .map_err(|e| SparseError::Io(format!("{}: {e}", path.display())))?;
        let coo = commorder_sparse::io::read_matrix_market(file).map_err(|e| match e {
            SparseError::Parse { line, message } => SparseError::Parse {
                line,
                message: format!("{}: {message}", path.display()),
            },
            other => other,
        })?;
        cases.push(ExternalCase {
            name: path
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("unnamed")
                .to_string(),
            matrix: CsrMatrix::try_from(coo)?,
        });
    }
    Ok(cases)
}

/// Writes every entry of `entries` into `dir` as Matrix Market files
/// (`<name>.mtx`) — exporting the synthetic corpus for use with external
/// tools. Returns the number of files written.
///
/// # Errors
///
/// Returns [`SparseError::Io`] on directory/write failures and
/// propagates generation errors.
pub fn export_to_directory(
    entries: &[CorpusEntry],
    dir: &std::path::Path,
) -> Result<usize, SparseError> {
    std::fs::create_dir_all(dir).map_err(|e| SparseError::Io(format!("{}: {e}", dir.display())))?;
    for entry in entries {
        let matrix = entry.generate()?;
        let path = dir.join(format!("{}.mtx", entry.name));
        let file = std::fs::File::create(&path)
            .map_err(|e| SparseError::Io(format!("{}: {e}", path.display())))?;
        commorder_sparse::io::write_matrix_market(file, &matrix)?;
    }
    Ok(entries.len())
}

#[cfg(test)]
mod io_tests {
    use super::*;

    #[test]
    fn export_and_reload_round_trips() {
        let dir = std::env::temp_dir().join("commorder_corpus_io_test");
        let _ = std::fs::remove_dir_all(&dir);
        let entries: Vec<CorpusEntry> = mini().into_iter().take(2).collect();
        let written = export_to_directory(&entries, &dir).unwrap();
        assert_eq!(written, 2);
        let cases = from_directory(&dir).unwrap();
        assert_eq!(cases.len(), 2);
        for entry in &entries {
            let case = cases.iter().find(|c| c.name == entry.name).unwrap();
            assert_eq!(case.matrix, entry.generate().unwrap());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn from_missing_directory_errors() {
        let err = from_directory(std::path::Path::new("/nonexistent/commorder")).unwrap_err();
        assert!(matches!(err, SparseError::Io(_)));
    }

    #[test]
    fn non_mtx_files_are_ignored() {
        let dir = std::env::temp_dir().join("commorder_corpus_ignore_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("notes.txt"), "not a matrix").unwrap();
        assert!(from_directory(&dir).unwrap().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
