//! The rule registry: every detection rule of §4.2.1 as a named,
//! individually enable/disable-able entry.
//!
//! The [`crate::Analyzer`] used to call each rule function in a hardcoded
//! list; it now iterates a [`RuleRegistry`] instead. That makes per-rule
//! ablations a one-liner (`analyzer.registry.try_disable("m7")`) and lets
//! downstream users register custom application rules next to the built-in
//! ones without touching the engine.
//!
//! Three rule shapes exist:
//!
//! * **application rules** run once per application over an [`AppView`]:
//!   the facts of one [`RuleContext`] (static model + optional runtime
//!   report), derived once and shared by every rule;
//! * the one **global rule**, the built-in M4\* pass, runs once per census
//!   over the static models of every application destined for the same
//!   cluster; it is not an extension point, because the corpus census drives
//!   the same check through the interned [`crate::m4_global_collisions_compact`]
//!   kernel;
//! * **pack rules** are application rules expressed in the rule language
//!   ([`crate::lang`]) and compiled at load time — same gating, same
//!   evaluation slot, declarative body.

use crate::finding::{Finding, MisconfigId};
use crate::lang::CompiledRule;
use crate::rules::{self, AppView, RuleContext};
use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

/// Which evidence a rule consumes — the Table 3 ablation axis. Rules with
/// [`RuleScope::Runtime`] are skipped in static-only mode (and when no
/// runtime report is available); rules with [`RuleScope::Static`] are
/// skipped in runtime-only mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleScope {
    /// Evaluates the rendered configuration only.
    Static,
    /// Needs the probe's runtime observations.
    Runtime,
}

impl RuleScope {
    /// The spelling pack files and `ij rules` use.
    pub fn as_str(&self) -> &'static str {
        match self {
            RuleScope::Static => "static",
            RuleScope::Runtime => "runtime",
        }
    }
}

/// Where a rule's body comes from: compiled-in Rust, or a rule pack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleOrigin {
    /// A native Rust rule function.
    Native,
    /// A rule-language rule loaded from a pack.
    Pack,
}

impl RuleOrigin {
    /// The spelling `ij rules` prints.
    pub fn as_str(&self) -> &'static str {
        match self {
            RuleOrigin::Native => "native",
            RuleOrigin::Pack => "pack",
        }
    }
}

/// An application-scoped rule: evaluated once per application over the
/// application's [`AppView`], which also hands out the [`RuleContext`] it
/// was derived from.
pub type AppRule = for<'a> fn(&AppView<'a>) -> Vec<Finding>;

#[derive(Clone)]
enum RuleBody {
    App(AppRule),
    /// The census-scoped M4\* pass: evaluated once over every application,
    /// by [`crate::Analyzer::analyze_global`] and the interned census paths
    /// through [`crate::m4_global_collisions_compact`].
    Global,
    Pack(Arc<CompiledRule>),
}

/// A registry operation named a rule that is not registered. Carries the
/// known names so callers (e.g. the CLI's `--without-rule`) can print them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownRule {
    /// The name that failed to resolve.
    pub name: String,
    /// Every registered name, in evaluation order.
    pub known: Vec<String>,
}

impl fmt::Display for UnknownRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown rule `{}` (known rules: {})",
            self.name,
            self.known.join(", ")
        )
    }
}

impl std::error::Error for UnknownRule {}

/// One registered rule.
#[derive(Clone)]
pub struct RuleEntry {
    name: Cow<'static, str>,
    classes: Cow<'static, [MisconfigId]>,
    scope: RuleScope,
    body: RuleBody,
    enabled: bool,
}

impl RuleEntry {
    /// The registry key used by [`RuleRegistry::try_disable`].
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The misconfiguration classes this rule can emit.
    pub fn classes(&self) -> &[MisconfigId] {
        &self.classes
    }

    /// Whether the rule consumes static or runtime evidence.
    pub fn scope(&self) -> RuleScope {
        self.scope
    }

    /// False when the rule has been switched off.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// True for census-scoped (cluster-wide) rules.
    pub fn is_global(&self) -> bool {
        matches!(self.body, RuleBody::Global)
    }

    /// Native Rust or pack-loaded.
    pub fn origin(&self) -> RuleOrigin {
        match self.body {
            RuleBody::App(_) | RuleBody::Global => RuleOrigin::Native,
            RuleBody::Pack(_) => RuleOrigin::Pack,
        }
    }

    /// The compiled pack rule backing this entry, for pack entries.
    pub fn pack_rule(&self) -> Option<&CompiledRule> {
        match &self.body {
            RuleBody::Pack(rule) => Some(rule),
            _ => None,
        }
    }

    /// Runs an application-scoped rule alone, over an [`AppView`] of `ctx`
    /// built for this call; callers running several rules build the view
    /// once and call [`run_view`](Self::run_view).
    pub fn run_app(&self, ctx: &RuleContext<'_>) -> Vec<Finding> {
        self.run_view(&AppView::new(ctx))
    }

    /// Runs an application-scoped rule over an application's view; global
    /// rules yield nothing here.
    pub fn run_view(&self, view: &AppView<'_>) -> Vec<Finding> {
        match &self.body {
            RuleBody::App(f) => f(view),
            RuleBody::Global => Vec::new(),
            RuleBody::Pack(rule) => rule.run(view),
        }
    }
}

impl fmt::Debug for RuleEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RuleEntry")
            .field("name", &self.name)
            .field("classes", &self.classes)
            .field("scope", &self.scope)
            .field("global", &self.is_global())
            .field("origin", &self.origin())
            .field("enabled", &self.enabled)
            .finish()
    }
}

/// The ordered table of rules an [`crate::Analyzer`] evaluates.
///
/// Entry order is the evaluation order; findings are canonically re-sorted
/// afterwards, so order only matters for reproducible side-effect-free
/// iteration. Names are unique: registering a name twice replaces the
/// earlier entry in place (same position, new body), so a custom or pack
/// rule can shadow a built-in one.
#[derive(Debug, Clone)]
pub struct RuleRegistry {
    entries: Vec<RuleEntry>,
}

impl Default for RuleRegistry {
    fn default() -> Self {
        RuleRegistry::standard()
    }
}

impl RuleRegistry {
    /// A registry with no rules; combine with the `register_*` methods to
    /// build a custom rule set from scratch.
    pub(crate) fn empty() -> Self {
        RuleRegistry {
            entries: Vec::new(),
        }
    }

    /// The paper's full rule set (Table 1), every entry enabled.
    pub fn standard() -> Self {
        use MisconfigId as M;
        let mut reg = RuleRegistry::empty();
        reg.register_app_rule(
            "m1",
            &[M::M1],
            RuleScope::Runtime,
            rules::m1_undeclared_open_ports,
        );
        reg.register_app_rule("m2", &[M::M2], RuleScope::Runtime, rules::m2_dynamic_ports);
        reg.register_app_rule(
            "m3",
            &[M::M3],
            RuleScope::Runtime,
            rules::m3_declared_not_open,
        );
        reg.register_app_rule(
            "m4a",
            &[M::M4A],
            RuleScope::Static,
            rules::m4a_unit_collisions,
        );
        reg.register_app_rule(
            "m4b",
            &[M::M4B],
            RuleScope::Static,
            rules::m4b_service_collisions,
        );
        reg.register_app_rule(
            "m4c",
            &[M::M4C],
            RuleScope::Static,
            rules::m4c_subset_collisions,
        );
        reg.register_app_rule(
            "m5",
            &[M::M5A, M::M5B, M::M5C, M::M5D],
            RuleScope::Static,
            rules::m5_service_references,
        );
        reg.register_app_rule(
            "m6",
            &[M::M6],
            RuleScope::Static,
            rules::m6_missing_policies,
        );
        reg.register_app_rule("m7", &[M::M7], RuleScope::Static, rules::m7_host_network);
        reg.register_global_rule("m4star", &[M::M4Star]);
        reg
    }

    /// Registers (or replaces) an application-scoped rule.
    pub fn register_app_rule(
        &mut self,
        name: &'static str,
        classes: &'static [MisconfigId],
        scope: RuleScope,
        rule: AppRule,
    ) -> &mut Self {
        self.insert(RuleEntry {
            name: Cow::Borrowed(name),
            classes: Cow::Borrowed(classes),
            scope,
            body: RuleBody::App(rule),
            enabled: true,
        })
    }

    /// Registers (or replaces) a census-scoped rule. Global rules always
    /// consume static evidence only, so their scope is [`RuleScope::Static`].
    fn register_global_rule(
        &mut self,
        name: &'static str,
        classes: &'static [MisconfigId],
    ) -> &mut Self {
        self.insert(RuleEntry {
            name: Cow::Borrowed(name),
            classes: Cow::Borrowed(classes),
            scope: RuleScope::Static,
            body: RuleBody::Global,
            enabled: true,
        })
    }

    /// Registers (or replaces) a compiled pack rule. Name, class, and
    /// evidence scope come from the rule's own declaration, so a pack rule
    /// named like a built-in one shadows it in place.
    pub(crate) fn register_pack_rule(&mut self, rule: Arc<CompiledRule>) -> &mut Self {
        self.insert(RuleEntry {
            name: Cow::Owned(rule.name().to_string()),
            classes: Cow::Owned(vec![rule.class()]),
            scope: rule.evidence(),
            body: RuleBody::Pack(rule),
            enabled: true,
        })
    }

    fn insert(&mut self, entry: RuleEntry) -> &mut Self {
        match self.entries.iter_mut().find(|e| e.name == entry.name) {
            Some(existing) => *existing = entry,
            None => self.entries.push(entry),
        }
        self
    }

    /// Every entry, in evaluation order.
    pub fn entries(&self) -> &[RuleEntry] {
        &self.entries
    }

    /// The registered names, in evaluation order.
    pub(crate) fn names(&self) -> impl Iterator<Item = &str> + '_ {
        self.entries.iter().map(|e| e.name())
    }

    fn unknown(&self, name: &str) -> UnknownRule {
        UnknownRule {
            name: name.to_string(),
            known: self.names().map(str::to_string).collect(),
        }
    }

    /// Looks an entry up by name.
    pub(crate) fn get(&self, name: &str) -> Option<&RuleEntry> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// Looks an entry up by name, with a typed error naming the known rules
    /// when it does not exist.
    pub fn try_get(&self, name: &str) -> Result<&RuleEntry, UnknownRule> {
        self.get(name).ok_or_else(|| self.unknown(name))
    }

    /// Switches one rule on or off. Returns `false` when no rule of that
    /// name is registered (the registry is unchanged).
    pub(crate) fn set_enabled(&mut self, name: &str, enabled: bool) -> bool {
        match self.entries.iter_mut().find(|e| e.name == name) {
            Some(e) => {
                e.enabled = enabled;
                true
            }
            None => false,
        }
    }

    /// Disables one rule; an unknown name is a typed [`UnknownRule`] error
    /// (the registry is unchanged).
    pub fn try_disable(&mut self, name: &str) -> Result<(), UnknownRule> {
        if self.set_enabled(name, false) {
            Ok(())
        } else {
            Err(self.unknown(name))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::StaticModel;

    #[test]
    fn standard_registry_covers_every_class() {
        let reg = RuleRegistry::standard();
        let covered: std::collections::BTreeSet<MisconfigId> = reg
            .entries()
            .iter()
            .flat_map(|e| e.classes().iter().copied())
            .collect();
        for id in MisconfigId::ALL {
            assert!(covered.contains(&id), "no rule emits {id}");
        }
    }

    #[test]
    fn enable_disable_round_trip() {
        let mut reg = RuleRegistry::standard();
        let enabled =
            |reg: &RuleRegistry, name: &str| reg.get(name).is_some_and(RuleEntry::is_enabled);
        assert!(enabled(&reg, "m7"));
        assert!(reg.set_enabled("m7", false));
        assert!(!enabled(&reg, "m7"));
        assert!(reg.set_enabled("m7", true));
        assert!(enabled(&reg, "m7"));
        assert!(!reg.set_enabled("no-such-rule", false));
        assert!(!reg.set_enabled("no-such-rule", true));
        assert!(reg.get("no-such-rule").is_none());
    }

    #[test]
    fn unknown_rule_errors_are_typed_and_name_the_known_rules() {
        let mut reg = RuleRegistry::standard();
        let err = reg.try_disable("m8").expect_err("m8 does not exist");
        assert_eq!(err.name, "m8");
        assert!(err.known.contains(&"m7".to_string()));
        let rendered = err.to_string();
        assert!(rendered.contains("unknown rule `m8`"), "{rendered}");
        assert!(rendered.contains("m4star"), "{rendered}");
        assert!(
            reg.get("m7").is_some_and(RuleEntry::is_enabled),
            "failed disable must not change state"
        );

        assert!(reg.try_get("m7").is_ok());
        assert_eq!(reg.try_get("nope").expect_err("typed").name, "nope");
        assert!(reg.try_disable("m7").is_ok());
        assert!(!reg.get("m7").is_some_and(RuleEntry::is_enabled));
        assert!(reg.try_disable("m7").is_ok(), "idempotent");
    }

    #[test]
    fn registering_same_name_replaces_in_place() {
        fn nothing(_: &AppView<'_>) -> Vec<Finding> {
            Vec::new()
        }
        let mut reg = RuleRegistry::standard();
        let before: Vec<String> = reg.names().map(str::to_string).collect();
        reg.register_app_rule("m7", &[], RuleScope::Static, nothing);
        let after: Vec<String> = reg.names().map(str::to_string).collect();
        assert_eq!(before, after, "replacement must not reorder entries");
        let replaced = reg.try_get("m7").expect("still registered");
        assert!(replaced.classes().is_empty());
        assert_eq!(replaced.origin(), RuleOrigin::Native);
        assert!(replaced.pack_rule().is_none());
    }

    #[test]
    fn global_entry_is_marked_global() {
        let reg = RuleRegistry::standard();
        let star = reg.get("m4star").expect("registered");
        assert!(star.is_global());
        assert!(!reg.get("m1").unwrap().is_global());
        // Running the global rule as an app rule is a no-op.
        assert!(star
            .run_app(&RuleContext {
                app: "x",
                statics: &StaticModel::default(),
                runtime: None,
                ownership: &[],
                chart_defines_policies: false,
            })
            .is_empty());
    }
}
