//! The `eval_mix` request stream: hot gate evaluations, hot netlist truth
//! tables, and cold 5–6-input truth tables that are new for every seed.
//! The program under test sees only these bodies.

use crate::rng::Rng;

pub const GATE_PATH: &str = "/v1/gate/eval";
pub const NETLIST_PATH: &str = "/v1/netlist/eval";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    HotGate,
    HotTable,
    Cold,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Req {
    pub class: Class,
    pub body: String,
}

impl Req {
    pub fn path(&self) -> &'static str {
        match self.class {
            Class::HotGate => GATE_PATH,
            Class::HotTable | Class::Cold => NETLIST_PATH,
        }
    }
}

/// Shares of the stream: hot gate, hot table; the rest is cold. Chosen
/// for a hit ratio of about 75 %, not taken from observed traffic; see
/// `perfbench/README.md` for why.
pub const HOT_GATE_SHARE: f64 = 0.45;
pub const HOT_TABLE_SHARE: f64 = 0.30;

/// The fixed hot set: 16 gate evaluations and 4 truth tables.
pub fn hot_set() -> Vec<Req> {
    let mut hot = Vec::new();
    let patterns = |n: usize| (0..1usize << n).map(move |p| (0..n).map(move |b| (p >> b) & 1));
    for (gate, n) in [("maj3", 3), ("xor", 2), ("and", 2)] {
        for bits in patterns(n) {
            let inputs: Vec<String> = bits.map(|b| b.to_string()).collect();
            hot.push(Req {
                class: Class::HotGate,
                body: format!(r#"{{"gate":"{gate}","inputs":[{}]}}"#, inputs.join(",")),
            });
        }
    }
    let parity = |p: usize, _n: usize| p.count_ones() % 2 == 1;
    let majority = |p: usize, n: usize| p.count_ones() as usize * 2 > n;
    let mux = |p: usize, _n: usize| (p >> (2 + (p & 3))) & 1 == 1;
    hot.push(table_req(
        Class::HotTable,
        &[column(3, parity), column(3, majority)],
    ));
    hot.push(table_req(Class::HotTable, &[column(4, parity)]));
    hot.push(table_req(Class::HotTable, &[column(5, majority)]));
    hot.push(table_req(Class::HotTable, &[column(6, mux)]));
    hot
}

fn column(n: usize, f: impl Fn(usize, usize) -> bool) -> String {
    (0..1usize << n)
        .map(|p| if f(p, n) { '1' } else { '0' })
        .collect()
}

fn table_req(class: Class, columns: &[String]) -> Req {
    let quoted: Vec<String> = columns.iter().map(|c| format!("\"{c}\"")).collect();
    Req {
        class,
        body: format!(r#"{{"table":[{}]}}"#, quoted.join(",")),
    }
}

/// A random single-output truth table over 5 or 6 inputs. Functions that
/// are constant are redrawn (they would synthesize trivially).
pub fn cold_table(rng: &mut Rng) -> Req {
    let n = 5 + rng.below(2);
    loop {
        let bits = rng.next_u64();
        let col: String = (0..1usize << n)
            .map(|i| if (bits >> i) & 1 == 1 { '1' } else { '0' })
            .collect();
        if col.contains('0') && col.contains('1') {
            return table_req(Class::Cold, &[col]);
        }
    }
}

/// `count` requests drawn from the seeded mix.
pub fn stream(seed: u64, count: usize) -> Vec<Req> {
    let hot = hot_set();
    let gates: Vec<&Req> = hot.iter().filter(|r| r.class == Class::HotGate).collect();
    let tables: Vec<&Req> = hot.iter().filter(|r| r.class == Class::HotTable).collect();
    let mut rng = Rng::new(seed);
    (0..count)
        .map(|_| {
            let u = rng.unit();
            if u < HOT_GATE_SHARE {
                gates[rng.below(gates.len())].clone()
            } else if u < HOT_GATE_SHARE + HOT_TABLE_SHARE {
                tables[rng.below(tables.len())].clone()
            } else {
                cold_table(&mut rng)
            }
        })
        .collect()
}

/// `count` cold tables for the closed-loop fill, drawn from a stream of
/// their own so they never repeat a key of [`stream`].
pub fn cold_fill(seed: u64, count: usize) -> Vec<Req> {
    let mut rng = Rng::new(seed ^ 0xc01d_f111_c01d_f111);
    (0..count).map(|_| cold_table(&mut rng)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use swjson::Json;

    fn key(req: &Req) -> u64 {
        let parsed = Json::parse(&req.body).expect("generated bodies parse");
        let normalized = swserve::netlist::normalize(&parsed).expect("generated tables are valid");
        swserve::content_key(&normalized.render())
    }

    #[test]
    fn the_same_seed_gives_the_same_stream() {
        assert_eq!(stream(7, 500), stream(7, 500));
        assert_eq!(cold_fill(7, 20), cold_fill(7, 20));
        assert_ne!(stream(7, 500), stream(8, 500));
    }

    #[test]
    fn different_seeds_give_disjoint_cold_keys() {
        let mut seen = HashSet::new();
        for seed in 1..=3 {
            let cold: Vec<Req> = stream(seed, 120)
                .into_iter()
                .filter(|r| r.class == Class::Cold)
                .chain(cold_fill(seed, 10))
                .collect();
            assert!(cold.len() >= 20);
            for req in &cold {
                assert!(seen.insert(key(req)), "cold key repeated (seed {seed})");
            }
        }
        for req in hot_set().iter().filter(|r| r.class == Class::HotTable) {
            assert!(!seen.contains(&key(req)));
        }
    }

    #[test]
    fn the_mix_holds_every_class() {
        let s = stream(1, 2000);
        for class in [Class::HotGate, Class::HotTable, Class::Cold] {
            let share = s.iter().filter(|r| r.class == class).count() as f64 / 2000.0;
            assert!(share > 0.15, "{class:?} share {share}");
        }
    }
}
