//! Full-text pins of the load-time diagnostics that name resolution
//! produces: unknown attributes and functions, unit-only builtins outside a
//! unit scope, wrong arity, and non-literal `labels.*` arguments. Each case
//! checks the whole `line L, column C: message` rendering, so a change to
//! how attributes or builtins resolve cannot silently move a position or
//! reword a message.

use ij_core::RulePack;

/// Loads a one-rule pack whose fields are `select` and `when`, with the
/// `when` value on line 4 starting at column 10.
fn when_error(select: &str, when: &str) -> String {
    let src = format!(
        "rule probe\n  class = M7\n  select = {select}\n  when = {when}\n  message = x\nend\n"
    );
    match src.parse::<RulePack>() {
        Ok(_) => panic!("`{when}` in the `{select}` scope must not load"),
        Err(err) => err.to_string(),
    }
}

#[test]
fn unknown_names_are_reported_at_their_position() {
    assert_eq!(
        when_error("service", "unit.host_network"),
        "line 4, column 10: unknown attribute `unit.host_network` in the `service` scope"
    );
    assert_eq!(
        when_error("unit", "unit.host_network && socket.port == 80"),
        "line 4, column 31: unknown attribute `socket.port` in the `unit` scope"
    );
    assert_eq!(
        when_error("app", "app.nope"),
        "line 4, column 10: unknown attribute `app.nope` in the `app` scope"
    );
    assert_eq!(
        when_error("unit", "core.nope(unit.name)"),
        "line 4, column 10: unknown function `core.nope`"
    );
    assert_eq!(
        when_error("socket", "!unit.host_network || labels.nope(\"a\")"),
        "line 4, column 32: unknown function `labels.nope`"
    );
}

#[test]
fn unit_probes_outside_a_unit_scope_are_rejected() {
    assert_eq!(
        when_error("service", "labels.has(\"app\")"),
        "line 4, column 10: `labels.has` probes the current compute unit and is not \
         available in the `service` scope"
    );
    assert_eq!(
        when_error("app", "labels.get(\"app\") == \"web\""),
        "line 4, column 10: `labels.get` probes the current compute unit and is not \
         available in the `app` scope"
    );
    assert_eq!(
        when_error("service_port", "ports.declared(port.port, port.protocol)"),
        "line 4, column 10: `ports.declared` probes the current compute unit and is not \
         available in the `service_port` scope"
    );
}

#[test]
fn arity_and_literal_argument_errors() {
    assert_eq!(
        when_error("unit", "labels.has(\"a\", \"b\")"),
        "line 4, column 10: `labels.has` takes 1 argument(s), found 2"
    );
    assert_eq!(
        when_error("unit", "labels.is(\"a\")"),
        "line 4, column 10: `labels.is` takes 2 argument(s), found 1"
    );
    assert_eq!(
        when_error("unit", "ports.declared(80)"),
        "line 4, column 10: `ports.declared` takes 2 argument(s), found 1"
    );
    assert_eq!(
        when_error("unit", "core.len(unit.name, unit.kind) > 0"),
        "line 4, column 10: `core.len` takes 1 argument(s), found 2"
    );
    assert_eq!(
        when_error("unit", "core.ternary(true, false)"),
        "line 4, column 10: `core.ternary` takes 3 argument(s), found 2"
    );
    assert_eq!(
        when_error("unit", "labels.has(unit.name)"),
        "line 4, column 21: `labels.has` resolves label ids at compile time, so its \
         arguments must be string literals"
    );
    assert_eq!(
        when_error("unit", "labels.is(\"tier\", unit.kind)"),
        "line 4, column 28: `labels.is` resolves label ids at compile time, so its \
         arguments must be string literals"
    );
}

#[test]
fn message_interpolations_resolve_like_when() {
    let err = "rule probe\n  class = M7\n  select = unit\n  when = true\n  message = on {socket.port}\nend\n"
        .parse::<RulePack>()
        .unwrap_err();
    assert_eq!(
        err.to_string(),
        "line 5, column 17: unknown attribute `socket.port` in the `unit` scope"
    );
    let err = "rule probe\n  class = M7\n  select = app\n  when = true\n  message = {core.upper(app.name, app.name)}\nend\n"
        .parse::<RulePack>()
        .unwrap_err();
    assert_eq!(
        err.to_string(),
        "line 5, column 14: `core.upper` takes 1 argument(s), found 2"
    );
}
