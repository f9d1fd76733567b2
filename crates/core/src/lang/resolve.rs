//! Selection scopes and the entity resolver: how a rule expression sees the
//! analyzer's model.
//!
//! A pack rule declares a **selection scope** ([`Select`]): the kind of
//! entity its expression runs once per. Each scope exposes a fixed set of
//! typed attributes, listed in the tables below; broader scopes nest — a
//! `socket` expression can read every `unit.*` and `app.*` attribute too,
//! because a socket belongs to exactly one unit of one application. The
//! compiler resolves an attribute path to its [`AttrKey`] once, at load
//! time.
//!
//! [`EntityResolver`] answers the evaluator's reads for one concrete entity
//! out of the application's [`crate::AppView`], the facts the native rules
//! read too (a unit's observed sockets and dynamic ports, a service's
//! selection, a port's resolution): the view derives them once per
//! application, and every rule of every scope reads the same ones. Only a
//! unit's `labels.*` probe depends on the pack (its interned ids), so a
//! rule builds it per unit as it evaluates.

use super::compile::Type;
use super::eval::Value;
use crate::model::ComputeUnit;
use crate::rules::{PortFacts, RuleContext, SvcFacts, UnitFacts};
use ij_model::{KeyId, LabelId, LabelInterner, Protocol, ServicePort, TargetPort};
use ij_probe::ObservedSocket;

/// The entity kind a rule's expression is evaluated against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Select {
    /// Once per application.
    App,
    /// Once per compute unit.
    Unit,
    /// Once per stable observed socket of each observed compute unit.
    Socket,
    /// Once per service.
    Service,
    /// Once per `(service, port mapping)` of services that select at least
    /// zero units — i.e. every port of every service.
    ServicePort,
}

impl Select {
    /// The spelling used by pack files and `ij rules` output.
    pub fn as_str(&self) -> &'static str {
        match self {
            Select::App => "app",
            Select::Unit => "unit",
            Select::Socket => "socket",
            Select::Service => "service",
            Select::ServicePort => "service_port",
        }
    }

    /// Parses a pack-file spelling.
    pub(crate) fn parse(s: &str) -> Option<Select> {
        match s {
            "app" => Some(Select::App),
            "unit" => Some(Select::Unit),
            "socket" => Some(Select::Socket),
            "service" => Some(Select::Service),
            "service_port" => Some(Select::ServicePort),
            _ => None,
        }
    }

    /// True when the scope carries a compute unit, enabling `ports.*` and
    /// `labels.*` builtins.
    pub(crate) fn unit_scoped(&self) -> bool {
        matches!(self, Select::Unit | Select::Socket)
    }

    /// Resolves a dotted attribute name among the attributes this scope
    /// exposes.
    pub(crate) fn attr(&self, name: &str) -> Option<(AttrKey, Type)> {
        let tables: &[&[(&str, Type, AttrKey)]] = match self {
            Select::App => &[APP_ATTRS],
            Select::Unit => &[APP_ATTRS, UNIT_ATTRS],
            Select::Socket => &[APP_ATTRS, UNIT_ATTRS, SOCKET_ATTRS],
            Select::Service => &[APP_ATTRS, SERVICE_ATTRS],
            Select::ServicePort => &[APP_ATTRS, SERVICE_ATTRS, SERVICE_PORT_ATTRS],
        };
        tables
            .iter()
            .flat_map(|table| table.iter())
            .find(|(attr, _, _)| *attr == name)
            .map(|(_, ty, key)| (*key, ty.clone()))
    }
}

/// One readable attribute. A compiled expression holds the key itself, so
/// evaluation is a jump on the key, never a name lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AttrKey {
    AppName,
    AppUnitCount,
    AppServiceCount,
    AppPolicyCount,
    AppHasPolicies,
    AppChartDefinesPolicies,
    AppHasRuntime,
    UnitName,
    UnitKind,
    UnitNamespace,
    UnitHostNetwork,
    UnitObserved,
    UnitHasDynamicPorts,
    UnitDeclaredCount,
    UnitLabelCount,
    SocketPort,
    SocketProtocol,
    ServiceName,
    ServiceNamespace,
    ServiceSelector,
    ServiceHeadless,
    ServiceSelectorEmpty,
    ServiceSelectedCount,
    PortPort,
    PortProtocol,
    PortTargetKind,
    PortTargetName,
    PortTargetResolved,
    PortTargetNumber,
    PortTargetDeclared,
    PortAnySelectedObserved,
    PortTargetOpen,
}

const APP_ATTRS: &[(&str, Type, AttrKey)] = &[
    ("app.name", Type::String, AttrKey::AppName),
    ("app.unit_count", Type::Number, AttrKey::AppUnitCount),
    ("app.service_count", Type::Number, AttrKey::AppServiceCount),
    ("app.policy_count", Type::Number, AttrKey::AppPolicyCount),
    ("app.has_policies", Type::Bool, AttrKey::AppHasPolicies),
    (
        "app.chart_defines_policies",
        Type::Bool,
        AttrKey::AppChartDefinesPolicies,
    ),
    ("app.has_runtime", Type::Bool, AttrKey::AppHasRuntime),
];

const UNIT_ATTRS: &[(&str, Type, AttrKey)] = &[
    ("unit.name", Type::String, AttrKey::UnitName),
    ("unit.kind", Type::String, AttrKey::UnitKind),
    ("unit.namespace", Type::String, AttrKey::UnitNamespace),
    ("unit.host_network", Type::Bool, AttrKey::UnitHostNetwork),
    ("unit.observed", Type::Bool, AttrKey::UnitObserved),
    (
        "unit.has_dynamic_ports",
        Type::Bool,
        AttrKey::UnitHasDynamicPorts,
    ),
    (
        "unit.declared_count",
        Type::Number,
        AttrKey::UnitDeclaredCount,
    ),
    ("unit.label_count", Type::Number, AttrKey::UnitLabelCount),
];

const SOCKET_ATTRS: &[(&str, Type, AttrKey)] = &[
    ("socket.port", Type::Number, AttrKey::SocketPort),
    ("socket.protocol", Type::String, AttrKey::SocketProtocol),
];

const SERVICE_ATTRS: &[(&str, Type, AttrKey)] = &[
    ("service.name", Type::String, AttrKey::ServiceName),
    ("service.namespace", Type::String, AttrKey::ServiceNamespace),
    ("service.selector", Type::String, AttrKey::ServiceSelector),
    ("service.headless", Type::Bool, AttrKey::ServiceHeadless),
    (
        "service.selector_empty",
        Type::Bool,
        AttrKey::ServiceSelectorEmpty,
    ),
    (
        "service.selected_count",
        Type::Number,
        AttrKey::ServiceSelectedCount,
    ),
];

const SERVICE_PORT_ATTRS: &[(&str, Type, AttrKey)] = &[
    ("port.port", Type::Number, AttrKey::PortPort),
    ("port.protocol", Type::String, AttrKey::PortProtocol),
    ("port.target_kind", Type::String, AttrKey::PortTargetKind),
    ("port.target_name", Type::String, AttrKey::PortTargetName),
    (
        "port.target_resolved",
        Type::Bool,
        AttrKey::PortTargetResolved,
    ),
    (
        "port.target_number",
        Type::Number,
        AttrKey::PortTargetNumber,
    ),
    (
        "port.target_declared",
        Type::Bool,
        AttrKey::PortTargetDeclared,
    ),
    (
        "port.any_selected_observed",
        Type::Bool,
        AttrKey::PortAnySelectedObserved,
    ),
    ("port.target_open", Type::Bool, AttrKey::PortTargetOpen),
];

/// A compute unit's labels lowered to the pack's interned id space, plus a
/// `KeyId` → value table for `labels.get`. Keys or pairs the pack never
/// interned simply don't appear, which is exactly the right semantics: no
/// probe in the pack can ask about them.
pub(crate) struct UnitLabelProbe<'a> {
    pair_ids: Vec<LabelId>,
    key_vals: Vec<(KeyId, &'a str)>,
}

impl<'a> UnitLabelProbe<'a> {
    pub(crate) fn new(unit: &'a ComputeUnit, interner: &LabelInterner) -> Self {
        let mut pair_ids = Vec::new();
        let mut key_vals = Vec::new();
        for (k, v) in unit.labels.iter() {
            if let Some(key_id) = interner.lookup_key(k) {
                key_vals.push((key_id, v));
                if let Some(pair_id) = interner.lookup_pair(k, v) {
                    pair_ids.push(pair_id);
                }
            }
        }
        pair_ids.sort_unstable();
        UnitLabelProbe { pair_ids, key_vals }
    }
}

/// The concrete entity an expression is being evaluated against, as the
/// application's view holds it.
pub(crate) enum Entity<'a> {
    App,
    /// A unit with its label probe; in the `socket` scope, one of the
    /// unit's stable sockets.
    Unit(
        &'a UnitFacts<'a>,
        &'a UnitLabelProbe<'a>,
        Option<ObservedSocket>,
    ),
    /// A service; in the `service_port` scope, one of its port mappings
    /// with the mapping's facts.
    Service(&'a SvcFacts<'a>, Option<(&'a ServicePort, &'a PortFacts)>),
}

/// One entity (plus its precomputed facts) as the evaluator reads it:
/// attributes by [`AttrKey`], labels by interned id, declared ports by
/// `(port, protocol)`.
pub(crate) struct EntityResolver<'a> {
    pub(crate) ctx: &'a RuleContext<'a>,
    pub(crate) entity: Entity<'a>,
}

impl<'a> EntityResolver<'a> {
    // The compiler admits a `unit.*`, `socket.*`, `service.*` or `port.*`
    // read, and a unit probe, only in a scope whose entity carries it, so
    // these accessors cannot miss.

    fn unit(&self) -> &UnitFacts<'a> {
        match self.entity {
            Entity::Unit(unit, ..) => unit,
            _ => unreachable!("unit read outside a unit scope"),
        }
    }

    fn labels(&self) -> &UnitLabelProbe<'a> {
        match self.entity {
            Entity::Unit(_, labels, _) => labels,
            _ => unreachable!("label probe outside a unit scope"),
        }
    }

    fn socket(&self) -> ObservedSocket {
        match self.entity {
            Entity::Unit(_, _, Some(socket)) => socket,
            _ => unreachable!("socket read outside the socket scope"),
        }
    }

    fn svc(&self) -> &SvcFacts<'a> {
        match self.entity {
            Entity::Service(svc, _) => svc,
            _ => unreachable!("service read outside a service scope"),
        }
    }

    fn port(&self) -> (&ServicePort, &PortFacts) {
        match self.entity {
            Entity::Service(_, Some(port)) => port,
            _ => unreachable!("port read outside the service_port scope"),
        }
    }

    /// The value of one attribute, of the type its table declares.
    pub(crate) fn attr(&self, key: AttrKey) -> Value {
        let ctx = self.ctx;
        match key {
            AttrKey::AppName => Value::str(ctx.app),
            AttrKey::AppUnitCount => Value::Number(ctx.statics.units.len() as f64),
            AttrKey::AppServiceCount => Value::Number(ctx.statics.services.len() as f64),
            AttrKey::AppPolicyCount => Value::Number(ctx.statics.policies.len() as f64),
            AttrKey::AppHasPolicies => Value::Bool(!ctx.statics.policies.is_empty()),
            AttrKey::AppChartDefinesPolicies => Value::Bool(ctx.chart_defines_policies),
            AttrKey::AppHasRuntime => Value::Bool(ctx.runtime.is_some()),
            AttrKey::UnitName => Value::str(&self.unit().unit.name),
            AttrKey::UnitKind => Value::str(&self.unit().unit.kind),
            AttrKey::UnitNamespace => Value::str(&self.unit().unit.namespace),
            AttrKey::UnitHostNetwork => Value::Bool(self.unit().unit.host_network),
            AttrKey::UnitObserved => Value::Bool(self.unit().observed),
            AttrKey::UnitHasDynamicPorts => Value::Bool(self.unit().has_dynamic),
            AttrKey::UnitDeclaredCount => {
                Value::Number(self.unit().unit.declared_ports().count() as f64)
            }
            AttrKey::UnitLabelCount => Value::Number(self.unit().unit.labels.len() as f64),
            AttrKey::SocketPort => Value::Number(f64::from(self.socket().port)),
            AttrKey::SocketProtocol => Value::str(self.socket().protocol.as_str()),
            AttrKey::ServiceName => Value::str(self.svc().svc.meta.qualified_name()),
            AttrKey::ServiceNamespace => Value::str(&self.svc().svc.meta.namespace),
            AttrKey::ServiceSelector => Value::str(self.svc().svc.spec.selector.to_string()),
            AttrKey::ServiceHeadless => Value::Bool(self.svc().svc.is_headless()),
            AttrKey::ServiceSelectorEmpty => Value::Bool(self.svc().svc.spec.selector.is_empty()),
            AttrKey::ServiceSelectedCount => Value::Number(self.svc().selected.len() as f64),
            AttrKey::PortPort => Value::Number(f64::from(self.port().0.port)),
            AttrKey::PortProtocol => Value::str(self.port().0.protocol.as_str()),
            AttrKey::PortTargetKind => Value::str(match &self.port().0.target_port {
                TargetPort::Number(_) => "number",
                TargetPort::Name(_) => "name",
            }),
            AttrKey::PortTargetName => Value::str(match &self.port().0.target_port {
                TargetPort::Number(_) => "",
                TargetPort::Name(n) => n.as_str(),
            }),
            AttrKey::PortTargetResolved => Value::Bool(self.port().1.resolved.is_some()),
            AttrKey::PortTargetNumber => {
                Value::Number(f64::from(self.port().1.resolved.unwrap_or(0)))
            }
            AttrKey::PortTargetDeclared => Value::Bool(self.port().1.declared),
            AttrKey::PortAnySelectedObserved => Value::Bool(self.port().1.any_observed),
            AttrKey::PortTargetOpen => Value::Bool(self.port().1.open),
        }
    }

    /// True when the current unit's labels contain the key (any value).
    pub(crate) fn label_key_present(&self, id: KeyId) -> bool {
        self.label_value(id).is_some()
    }

    /// True when the current unit's labels contain the exact pair.
    pub(crate) fn label_pair_present(&self, id: LabelId) -> bool {
        self.labels().pair_ids.binary_search(&id).is_ok()
    }

    /// The value the current unit's labels map the key to.
    pub(crate) fn label_value(&self, id: KeyId) -> Option<&str> {
        self.labels()
            .key_vals
            .iter()
            .find(|(k, _)| *k == id)
            .map(|(_, v)| *v)
    }

    /// True when the current unit declares `(port, protocol)`; `protocol`
    /// is the canonical upper-case name (`TCP`/`UDP`/`SCTP`).
    pub(crate) fn port_declared(&self, port: u16, protocol: &str) -> bool {
        parse_protocol(protocol).is_some_and(|protocol| self.unit().unit.declares(port, protocol))
    }
}

/// Canonical protocol spellings only — rule expressions deal in the same
/// upper-case names the model prints.
pub(crate) fn parse_protocol(s: &str) -> Option<Protocol> {
    match s {
        "TCP" => Some(Protocol::Tcp),
        "UDP" => Some(Protocol::Udp),
        "SCTP" => Some(Protocol::Sctp),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::builtins::{BuiltinKind, BUILTINS};
    use crate::lang::compile::{compile, CompileEnv};
    use crate::lang::parse;

    /// The language reference these tests hold the implementation to.
    const RULES_MD: &str = include_str!("../../../../docs/RULES.md");

    /// The body rows of the markdown table whose header row starts with
    /// `header`, split into trimmed cells.
    fn table(header: &str) -> Vec<Vec<&'static str>> {
        RULES_MD
            .lines()
            .skip_while(|line| !line.starts_with(header))
            .take_while(|line| line.starts_with('|'))
            .skip(2)
            .map(|line| line.trim_matches('|').split(" | ").map(str::trim).collect())
            .collect()
    }

    /// The backquoted spans of a table cell.
    fn code_spans(cell: &str) -> Vec<&str> {
        cell.split('`').skip(1).step_by(2).collect()
    }

    fn compile_in(select: Select, src: &str) -> Result<Type, String> {
        let ast = parse(src).map_err(|e| e.message)?;
        let mut interner = LabelInterner::new();
        let mut env = CompileEnv {
            select,
            interner: &mut interner,
        };
        compile(&ast, &mut env)
            .map(|c| c.ty().clone())
            .map_err(|e| e.message)
    }

    #[test]
    fn documented_attributes_resolve_in_the_documented_scopes() {
        // `select` → the attribute families it exposes; every scope nests
        // the application attributes.
        let scopes: Vec<(Select, Vec<&str>)> = table("| `select` |")
            .into_iter()
            .map(|row| {
                let select = Select::parse(code_spans(row[0])[0]).expect("documented scope");
                let mut families = vec!["app"];
                for family in code_spans(row[2]) {
                    families.push(family.strip_suffix(".*").expect("`family.*`"));
                }
                (select, families)
            })
            .collect();
        assert_eq!(scopes.len(), 5, "every selection scope is documented");

        let attrs = table("| attribute |");
        let all = [
            APP_ATTRS,
            UNIT_ATTRS,
            SOCKET_ATTRS,
            SERVICE_ATTRS,
            SERVICE_PORT_ATTRS,
        ];
        assert_eq!(
            attrs.len(),
            all.iter().map(|table| table.len()).sum::<usize>(),
            "every attribute is documented once"
        );
        for row in attrs {
            let name = code_spans(row[0])[0];
            let ty = row[1];
            let family = name.split('.').next().expect("dotted name");
            for (select, families) in &scopes {
                match compile_in(*select, name) {
                    Ok(got) => {
                        assert!(
                            families.contains(&family),
                            "`{name}` must not resolve in the `{}` scope",
                            select.as_str()
                        );
                        assert_eq!(got.to_string(), ty, "type of `{name}`");
                    }
                    Err(message) => {
                        assert!(
                            !families.contains(&family),
                            "`{name}` must resolve in the `{}` scope: {message}",
                            select.as_str()
                        );
                        assert!(message.contains("unknown attribute"), "{message}");
                    }
                }
            }
        }
    }

    #[test]
    fn documented_builtins_resolve() {
        let mut documented = 0;
        for row in table("| builtin |") {
            for call in code_spans(row[0]) {
                let name = call.split('(').next().expect("call syntax");
                assert!(BuiltinKind::lookup(name).is_some(), "`{name}` resolves");
                documented += 1;
            }
        }
        assert_eq!(
            documented,
            BUILTINS.len(),
            "every builtin is documented once"
        );
        assert!(BuiltinKind::lookup("core.nope").is_none());
    }
}
