//! Text-emitting front end of the extended-Solomon generator.
//!
//! [`vrptw::generator`] synthesizes the *instance object*; this wrapper
//! fixes the missing half of the pipeline: the **text form**. Everything
//! downstream of generation — the Solomon parser, the server's
//! content-hash `InstanceCache`, the mesh's `run_mesh_job`
//! re-serialization — speaks the text format, so the scenario layer
//! always materializes instances as text first and lets the existing
//! parser produce the object. Output is byte-identical per
//! `(seed, class, n)` (pinned by `tests/proptests.rs`).

use vrptw::generator::{GeneratorConfig, InstanceClass};
use vrptw::{solomon, Instance};

/// Deterministic extended-Solomon instance source.
///
/// ```
/// use tsmo_scenario::Generator;
/// use vrptw::generator::InstanceClass;
///
/// let g = Generator::new(7, InstanceClass::R1, 100);
/// let text = g.text();
/// let inst = vrptw::solomon::parse(&text).unwrap();
/// assert_eq!(inst.n_customers(), 100);
/// assert_eq!(text, Generator::new(7, InstanceClass::R1, 100).text());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Generator {
    cfg: GeneratorConfig,
}

impl Generator {
    /// A generator for `n` customers of `class`, fully determined by
    /// `(seed, class, n)`.
    pub fn new(seed: u64, class: InstanceClass, n: usize) -> Self {
        Self {
            cfg: GeneratorConfig::new(class, n, seed),
        }
    }

    /// The generated instance object.
    ///
    /// # Panics
    /// Panics if `n == 0` (propagated from [`GeneratorConfig::build`]).
    pub fn instance(&self) -> Instance {
        self.cfg.build()
    }

    /// The generated instance in Solomon text format — the canonical form
    /// every other subsystem (parser, cache, wire) consumes.
    pub fn text(&self) -> String {
        solomon::write(&self.instance())
    }
}

/// Parses a class label (`"R1"`, `"rc2"`, …) as taken by `scengen --class`.
pub fn parse_class(s: &str) -> Option<InstanceClass> {
    let up = s.to_ascii_uppercase();
    InstanceClass::ALL.into_iter().find(|c| c.label() == up)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_parses_back_to_the_same_instance() {
        let g = Generator::new(3, InstanceClass::RC1, 60);
        let direct = g.instance();
        let parsed = solomon::parse(&g.text()).unwrap();
        assert_eq!(parsed.n_sites(), direct.n_sites());
        assert_eq!(parsed.capacity(), direct.capacity());
        assert_eq!(parsed.max_vehicles(), direct.max_vehicles());
        for i in 0..direct.n_sites() as u16 {
            let (a, b) = (direct.site(i), parsed.site(i));
            assert!((a.x - b.x).abs() < 1e-12, "site {i}");
            assert!((a.ready - b.ready).abs() < 1e-12, "site {i}");
            assert!((a.due - b.due).abs() < 1e-12, "site {i}");
        }
    }

    #[test]
    fn class_labels_round_trip() {
        for c in InstanceClass::ALL {
            assert_eq!(parse_class(c.label()), Some(c));
            assert_eq!(parse_class(&c.label().to_lowercase()), Some(c));
        }
        assert_eq!(parse_class("Q9"), None);
    }
}
