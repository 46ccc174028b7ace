//! SlashBurn ordering (Lim, Kang, Faloutsos — TKDE'14, the paper's \[31\]).
//!
//! A community-based baseline that RABBIT was shown to outperform:
//! repeatedly *slash* the `k` highest-degree hubs (assigning them the
//! lowest free IDs), then *burn* the shattered remainder — non-giant
//! connected components are packed at the high end of the ID space
//! (largest first), and the procedure recurses on the giant connected
//! component until it fits in one slash.
//!
//! The result concentrates hubs at the front and peels the graph's
//! "caveman" periphery to the back, which is effective on power-law
//! graphs but ignores flat community structure — exactly the contrast
//! the paper draws against RABBIT.

use std::collections::VecDeque;

use commorder_sparse::{ops, CsrMatrix, Permutation, SparseError};

use crate::Reordering;

/// SlashBurn configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlashBurn {
    /// Fraction of the (remaining) vertices slashed per iteration; the
    /// original paper recommends 0.5–2%.
    pub hub_fraction: f64,
}

impl Default for SlashBurn {
    fn default() -> Self {
        SlashBurn { hub_fraction: 0.01 }
    }
}

impl Reordering for SlashBurn {
    fn name(&self) -> &str {
        "SLASHBURN"
    }

    fn reorder(&self, a: &CsrMatrix) -> Result<Permutation, SparseError> {
        if !(0.0..=1.0).contains(&self.hub_fraction) || self.hub_fraction == 0.0 {
            return Err(SparseError::DimensionMismatch {
                expected: "hub_fraction in (0, 1]".to_string(),
                found: format!("hub_fraction == {}", self.hub_fraction),
            });
        }
        let sym = ops::symmetric_pattern(a)?;
        let n = sym.n_rows();
        let mut new_ids = vec![u32::MAX; n as usize];
        // `active[v]`: still part of the graph under consideration.
        let mut active = vec![true; n as usize];
        let mut degrees: Vec<u32> = (0..n).map(|v| sym.row_degree(v)).collect();
        let mut front = 0u32; // next low ID (hubs)
        let mut back = n; // next high ID + 1 (peeled components)
        let mut working: Vec<u32> = (0..n).collect();

        while !working.is_empty() {
            let k = ((working.len() as f64 * self.hub_fraction).ceil() as usize)
                .clamp(1, working.len());
            // Slash: k highest-degree active vertices -> lowest free IDs.
            working.sort_by_key(|&v| (std::cmp::Reverse(degrees[v as usize]), v));
            for &hub in working.iter().take(k) {
                new_ids[hub as usize] = front;
                front += 1;
                active[hub as usize] = false;
                let (cols, _) = sym.row(hub);
                for &c in cols {
                    degrees[c as usize] = degrees[c as usize].saturating_sub(1);
                }
            }
            working.drain(..k);
            if working.is_empty() {
                break;
            }

            // Burn: connected components of the remainder.
            let mut comp_of = vec![u32::MAX; n as usize];
            let mut comps: Vec<Vec<u32>> = Vec::new();
            for &start in &working {
                if comp_of[start as usize] != u32::MAX {
                    continue;
                }
                let id = comps.len() as u32;
                let mut members = vec![start];
                comp_of[start as usize] = id;
                let mut queue = VecDeque::from([start]);
                while let Some(v) = queue.pop_front() {
                    let (cols, _) = sym.row(v);
                    for &c in cols {
                        if active[c as usize] && comp_of[c as usize] == u32::MAX {
                            comp_of[c as usize] = id;
                            members.push(c);
                            queue.push_back(c);
                        }
                    }
                }
                comps.push(members);
            }
            // Giant component keeps being worked on; the rest are packed
            // at the back, largest-first so bigger fragments sit closer to
            // the still-active region.
            #[expect(
                clippy::expect_used,
                reason = "working is non-empty here and each working vertex lands in a component"
            )]
            let giant = comps
                .iter()
                .enumerate()
                .max_by_key(|(_, m)| m.len())
                .map(|(i, _)| i)
                .expect("at least one component");
            let mut rest: Vec<usize> = (0..comps.len()).filter(|&i| i != giant).collect();
            rest.sort_by_key(|&i| std::cmp::Reverse(comps[i].len()));
            for &ci in rest.iter().rev() {
                // Assign from the very back, so after the loop the
                // largest component ends up with the lowest of the high
                // IDs (closest to the hubs).
                for &v in comps[ci].iter().rev() {
                    back -= 1;
                    new_ids[v as usize] = back;
                    active[v as usize] = false;
                }
            }
            working = comps.swap_remove(giant);
            // Degrees within the giant component are already maintained
            // incrementally by the slashing loop.
        }
        debug_assert_eq!(front, back);
        Permutation::from_new_ids(new_ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use commorder_sparse::CooMatrix;
    use commorder_synth::generators::{BarabasiAlbert, PlantedPartition};

    #[test]
    fn produces_valid_permutation_on_power_law_graph() {
        let g = BarabasiAlbert {
            n: 500,
            m: 4,
            scramble_ids: true,
        }
        .generate(71)
        .unwrap();
        let p = SlashBurn::default().reorder(&g).unwrap();
        assert_eq!(p.len(), 500);
        let r = g.permute_symmetric(&p).unwrap();
        assert_eq!(r.nnz(), g.nnz());
    }

    #[test]
    fn hubs_land_at_the_front() {
        // A star: the hub must receive ID 0.
        let mut entries = Vec::new();
        for v in 1..20u32 {
            entries.push((0, v, 1.0));
            entries.push((v, 0, 1.0));
        }
        let g = CsrMatrix::try_from(CooMatrix::from_entries(20, 20, entries).unwrap()).unwrap();
        let p = SlashBurn::default().reorder(&g).unwrap();
        assert_eq!(p.new_of(0), 0);
    }

    #[test]
    fn concentrates_top_hubs_in_the_low_id_range() {
        let g = BarabasiAlbert {
            n: 1000,
            m: 6,
            scramble_ids: true,
        }
        .generate(72)
        .unwrap();
        let p = SlashBurn::default().reorder(&g).unwrap();
        // The 10 highest-degree vertices must land in the first 10% of
        // the ID space (they are slashed in the first iterations).
        let mut by_degree: Vec<u32> = (0..1000).collect();
        let degrees = g.out_degrees();
        by_degree.sort_by_key(|&v| std::cmp::Reverse(degrees[v as usize]));
        for &hub in by_degree.iter().take(10) {
            assert!(
                p.new_of(hub) < 100,
                "hub {hub} (degree {}) got id {}",
                degrees[hub as usize],
                p.new_of(hub)
            );
        }
    }

    #[test]
    fn rejects_degenerate_fraction() {
        let g = CsrMatrix::empty(4);
        assert!(SlashBurn { hub_fraction: 0.0 }.reorder(&g).is_err());
        assert!(SlashBurn { hub_fraction: 1.5 }.reorder(&g).is_err());
    }

    #[test]
    fn handles_disconnected_and_empty() {
        let p = SlashBurn::default().reorder(&CsrMatrix::empty(5)).unwrap();
        assert_eq!(p.len(), 5);
        let p = SlashBurn::default().reorder(&CsrMatrix::empty(0)).unwrap();
        assert!(p.is_empty());
        let g = PlantedPartition::uniform(128, 16, 4.0, 0.0)
            .generate(73)
            .unwrap();
        let p = SlashBurn::default().reorder(&g).unwrap();
        assert_eq!(p.len(), 128);
    }

    #[test]
    fn deterministic() {
        let g = BarabasiAlbert {
            n: 300,
            m: 3,
            scramble_ids: true,
        }
        .generate(74)
        .unwrap();
        assert_eq!(
            SlashBurn::default().reorder(&g).unwrap(),
            SlashBurn::default().reorder(&g).unwrap()
        );
    }
}
