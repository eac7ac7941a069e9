//! The Steiner entry in the construction registry.
//!
//! `bmst-core` cannot depend on this crate, so its [`bmst_core::registry`]
//! only knows the spanning constructions; [`full_registry`] appends the
//! BKST Steiner builder and is what the router and CLI resolve names
//! against.

use std::sync::OnceLock;

use bmst_core::{
    BmstError, BoundKind, BuilderDescriptor, BuiltGeometry, CostClass, ProblemContext, TreeBuilder,
};
use bmst_tree::RoutingTree;

use crate::bkst::run;

/// BKST (§3.3): the bounded-Kruskal Steiner construction on the Hanan grid.
///
/// Registered as `steiner` (alias `bkst`); rectilinear-only. Its
/// [`TreeBuilder::build_geometry`] exposes the materialised Steiner points
/// after the net's terminals.
#[derive(Debug, Clone, Copy, Default)]
pub struct BkstBuilder;

impl TreeBuilder for BkstBuilder {
    fn descriptor(&self) -> &BuilderDescriptor {
        &BuilderDescriptor {
            name: "steiner",
            aliases: &["bkst"],
            summary: "bounded-Kruskal Steiner tree on the Hanan grid (§3.3)",
            cost_class: CostClass::Heuristic,
            bound: BoundKind::Window,
            metric: false,
            elmore: false,
            steiner: true,
            variant_of: None,
        }
    }

    // analyze: allow(panic-reach) — raw trait API; registry consumers go through try_build, which catch_unwinds into BmstError::Internal
    fn build(&self, cx: &ProblemContext<'_>) -> Result<RoutingTree, BmstError> {
        run(cx).map(|st| st.tree)
    }

    // analyze: allow(panic-reach) — raw trait API; registry consumers go through try_build, which catch_unwinds into BmstError::Internal
    fn build_geometry(&self, cx: &ProblemContext<'_>) -> Result<BuiltGeometry, BmstError> {
        let st = run(cx)?;
        Ok(BuiltGeometry {
            tree: st.tree,
            points: st.points,
            num_terminals: st.num_terminals,
        })
    }
}

static BKST_BUILDER: BkstBuilder = BkstBuilder;

static FULL: OnceLock<Vec<&'static dyn TreeBuilder>> = OnceLock::new();

/// Every registered construction: [`bmst_core::registry`] plus the BKST
/// Steiner builder.
pub fn full_registry() -> &'static [&'static dyn TreeBuilder] {
    FULL.get_or_init(|| {
        let mut all: Vec<&'static dyn TreeBuilder> = bmst_core::registry().to_vec();
        all.push(&BKST_BUILDER);
        all
    })
}

/// Resolves `name` against [`full_registry`] descriptor names and aliases.
pub fn find_builder(name: &str) -> Option<&'static dyn TreeBuilder> {
    full_registry().iter().copied().find(|b| {
        let d = b.descriptor();
        d.name == name || d.aliases.contains(&name)
    })
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)] // tests may panic and compare exact floats
    use super::*;
    use bmst_core::CancelToken;
    use bmst_geom::{Net, Point};

    #[test]
    fn full_registry_appends_steiner() {
        let full = full_registry();
        assert_eq!(full.len(), bmst_core::registry().len() + 1);
        assert_eq!(full.last().unwrap().descriptor().name, "steiner");
    }

    #[test]
    fn find_builder_sees_core_and_steiner() {
        assert_eq!(find_builder("bkst").unwrap().descriptor().name, "steiner");
        assert_eq!(find_builder("bkrus").unwrap().descriptor().name, "bkrus");
        assert!(find_builder("missing").is_none());
    }

    #[test]
    fn builder_matches_free_function_and_exposes_points() {
        let net = Net::with_source_first(vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 2.0),
            Point::new(10.0, -2.0),
        ])
        .unwrap();
        let cx = ProblemContext::new(&net, 0.5).unwrap();
        let st = crate::bkst(&net, 0.5).unwrap();
        let tree = BkstBuilder.build(&cx).unwrap();
        assert_eq!(tree.cost().to_bits(), st.tree.cost().to_bits());
        let g = BkstBuilder.build_geometry(&cx).unwrap();
        assert_eq!(g.points, st.points);
        assert_eq!(g.num_terminals, net.len());
        assert!(g.points.len() >= net.len());
    }

    #[test]
    fn build_honours_a_fired_token() {
        let net = Net::with_source_first(vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 2.0),
            Point::new(10.0, -2.0),
            Point::new(4.0, 7.0),
        ])
        .unwrap();
        let cancel = CancelToken::manual();
        cancel.cancel();
        let cx = ProblemContext::new(&net, 0.5).unwrap().with_cancel(cancel);
        assert!(matches!(
            BkstBuilder.build(&cx),
            Err(BmstError::DeadlineExceeded { .. })
        ));
        assert!(matches!(
            BkstBuilder.build_geometry(&cx),
            Err(BmstError::DeadlineExceeded { .. })
        ));
    }
}
