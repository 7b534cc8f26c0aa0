//! `golden_digests.json`: the multiset digest of every distinct result the
//! default seed produces, checked on every run of that seed; `--bless`
//! regenerates the file.

use crate::members;
use crate::system::Config;
use crate::workloads::Workload;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use vdm_obs::util::{json_string, Json};

/// Seed the golden digests (and a run without `--seed`) use.
pub const DEFAULT_SEED: u64 = 4711;

#[derive(Debug, Default, Clone, PartialEq)]
pub struct Golden {
    pub seed: u64,
    /// Per workload name: journal rows the digests were taken at, and
    /// digest by operation key.
    pub workloads: BTreeMap<String, (usize, BTreeMap<String, u64>)>,
}

impl Golden {
    /// The digests committed beside the sources.
    pub fn committed() -> Golden {
        Golden::parse(include_str!("../golden_digests.json")).expect("golden_digests.json is valid")
    }

    pub fn parse(text: &str) -> Result<Golden, String> {
        let doc = Json::parse(text)?;
        let seed = doc.get("seed").and_then(Json::as_f64).ok_or("golden: no seed")? as u64;
        let mut workloads = BTreeMap::new();
        for (name, entry) in members(doc.get("workloads")) {
            let rows = entry.get("journal_rows").and_then(Json::as_f64).ok_or("golden: no rows")?;
            let mut digests = BTreeMap::new();
            for (key, hex) in members(entry.get("digests")) {
                let hex = hex.as_str().ok_or("golden: digest is not a string")?;
                let digest = u64::from_str_radix(hex, 16).map_err(|e| format!("{key}: {e}"))?;
                digests.insert(key.clone(), digest);
            }
            workloads.insert(name.clone(), (rows as usize, digests));
        }
        Ok(Golden { seed, workloads })
    }

    /// Whether golden digests exist for `cfg`'s seed and data size.
    pub fn covers(&self, cfg: &Config) -> bool {
        cfg.seed == self.seed
            && self
                .workloads
                .get(cfg.workload.name())
                .is_some_and(|(rows, _)| *rows == cfg.scale.journal_rows)
    }

    pub fn get(&self, workload: Workload, key: &str) -> Option<u64> {
        self.workloads.get(workload.name())?.1.get(key).copied()
    }

    pub fn to_json(&self) -> String {
        let mut out = format!("{{\n  \"seed\": {},\n  \"workloads\": {{\n", self.seed);
        for (wi, (name, (rows, digests))) in self.workloads.iter().enumerate() {
            let _ = writeln!(out, "    {}: {{\n      \"journal_rows\": {rows},", json_string(name));
            out.push_str("      \"digests\": {\n");
            for (di, (key, digest)) in digests.iter().enumerate() {
                let comma = if di + 1 == digests.len() { "" } else { "," };
                let _ = writeln!(out, "        {}: \"{digest:016x}\"{comma}", json_string(key));
            }
            let comma = if wi + 1 == self.workloads.len() { "" } else { "," };
            let _ = writeln!(out, "      }}\n    }}{comma}");
        }
        out.push_str("  }\n}\n");
        out
    }
}
