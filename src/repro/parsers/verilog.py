"""Structural (gate-level) Verilog reader and writer.

Supports the flat netlist subset that synthesis tools emit and that the
IWLS benchmark collections also ship alongside .bench/.blif::

    module top (a, b, y);
      input a, b;
      output y;
      wire w1;
      and g1 (w1, a, b);     // gate instances: output first
      not g2 (y, w1);
      assign y2 = w1;        // alias assigns
    endmodule

Primitive gates: and, nand, or, nor, xor, xnor, not, buf.  Behavioral
constructs (always, case, operators in assign) are out of scope and raise
:class:`~repro.errors.ParseError` with the offending line.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Dict, List, Tuple, Union

from ..errors import CircuitError, ParseError
from ..graph.circuit import Circuit
from ..graph.node import GATE_TOKENS, NodeType

# The gate primitives of structural Verilog, spelled as they must appear.
_PRIMITIVES = {
    token: GATE_TOKENS[token]
    for token in ("and", "nand", "or", "nor", "xor", "xnor", "not", "buf")
}

_TOKEN_FOR = {v: k for k, v in _PRIMITIVES.items()}

_MODULE_RE = re.compile(
    r"module\s+(\w+)\s*\(([^)]*)\)\s*;", re.DOTALL
)
_GATE_RE = re.compile(
    r"^(\w+)\s+(\w+)?\s*\(\s*([^)]*?)\s*\)$", re.DOTALL
)
_ASSIGN_RE = re.compile(r"^assign\s+(\w+)\s*=\s*(\w+)$")


def _strip_comments(text: str) -> str:
    text = re.sub(r"/\*.*?\*/", " ", text, flags=re.DOTALL)
    return re.sub(r"//[^\n]*", "", text)


def _line_of(text: str, pos: int) -> int:
    return text.count("\n", 0, pos) + 1


def loads(text: str, name: str = "") -> Circuit:
    """Parse structural Verilog source into a :class:`Circuit`."""
    clean = _strip_comments(text)
    match = _MODULE_RE.search(clean)
    if not match:
        raise ParseError("no module declaration found")
    module_name = match.group(1)
    body_start = match.end()
    end = clean.find("endmodule", body_start)
    if end < 0:
        raise ParseError("missing endmodule")
    body = clean[body_start:end]

    circuit = Circuit(name or module_name)
    inputs: List[str] = []
    outputs: List[str] = []
    aliases: Dict[str, str] = {}
    gates: List[Tuple[int, NodeType, str, List[str]]] = []

    offset = body_start
    for raw in body.split(";"):
        stmt = " ".join(raw.split())
        # Report the line the statement's first token is on, not the line
        # the previous ';' ended on (they differ across line breaks).
        leading = len(raw) - len(raw.lstrip())
        lineno = _line_of(clean, offset + leading)
        offset += len(raw) + 1
        if not stmt:
            continue
        keyword = stmt.split()[0]
        rest = stmt[len(keyword):].strip()
        if keyword in ("input", "output", "wire"):
            if "[" in rest:
                raise ParseError(
                    "vector ports/wires are not supported (flatten first)",
                    lineno,
                )
            names = [n.strip() for n in rest.split(",") if n.strip()]
            if keyword == "input":
                inputs.extend(names)
            elif keyword == "output":
                outputs.extend(names)
            continue
        if keyword == "assign":
            alias = _ASSIGN_RE.match(stmt)
            if not alias:
                raise ParseError(
                    "only simple alias assigns (assign a = b) are "
                    "supported",
                    lineno,
                )
            aliases[alias.group(1)] = alias.group(2)
            continue
        gate = _GATE_RE.match(stmt)
        if gate and gate.group(1) in _PRIMITIVES:
            node_type = _PRIMITIVES[gate.group(1)]
            ports = [p.strip() for p in gate.group(3).split(",") if p.strip()]
            if len(ports) < 2:
                raise ParseError(
                    f"gate {gate.group(1)} needs an output and at least "
                    "one input",
                    lineno,
                )
            target, fanins = ports[0], ports[1:]
            gates.append((lineno, node_type, target, fanins))
            continue
        if gate and gate.group(1) == "module":
            raise ParseError("nested modules are not supported", lineno)
        raise ParseError(f"unsupported statement: {stmt!r}", lineno)

    # Duplicate and dangling connections are diagnosed with the offending
    # instance's line before any gate is built (instances may reference
    # signals produced further down the module).
    defined_at: Dict[str, int] = {}
    for pi in inputs:
        if pi in defined_at:
            raise ParseError(f"duplicate input {pi!r}")
        defined_at[pi] = 0
    for lineno, node_type, target, fanins in gates:
        if target in defined_at:
            raise ParseError(
                f"duplicate driver for {target!r} "
                f"(first driven at line {defined_at[target]})",
                lineno,
            )
        defined_at[target] = lineno
    for alias in aliases:
        if alias in defined_at:
            raise ParseError(f"duplicate driver for alias {alias!r}")
        defined_at[alias] = 0
    for lineno, node_type, target, fanins in gates:
        for fanin in fanins:
            if aliases.get(fanin, fanin) not in defined_at:
                raise ParseError(
                    f"gate {target!r} references undriven signal "
                    f"{fanin!r}",
                    lineno,
                )
    for alias, source in aliases.items():
        if aliases.get(source, source) not in defined_at:
            raise ParseError(
                f"assign {alias} = {source}: {source!r} is never driven"
            )
    for out in outputs:
        if out not in defined_at:
            raise ParseError(f"declared output {out!r} is never driven")

    for pi in inputs:
        circuit.add_input(pi)
    for lineno, node_type, target, fanins in gates:
        resolved = [aliases.get(f, f) for f in fanins]
        if node_type in (NodeType.NOT, NodeType.BUF) and len(resolved) != 1:
            raise ParseError(
                f"{_TOKEN_FOR[node_type]} takes exactly one input", lineno
            )
        circuit.add_gate(target, node_type, resolved)
    for alias, source in aliases.items():
        if alias not in circuit:
            circuit.add_gate(alias, NodeType.BUF, [aliases.get(source, source)])
    circuit.set_outputs(outputs)
    try:
        circuit.validate()
    except CircuitError as exc:  # structural problems, e.g. a cycle
        raise ParseError(str(exc)) from exc
    return circuit


def load(path: Union[str, Path]) -> Circuit:
    """Read a structural Verilog file from disk."""
    path = Path(path)
    return loads(path.read_text(), name=path.stem)


def dumps(circuit: Circuit) -> str:
    """Serialize to structural Verilog (round-trips with :func:`loads`).

    MUX and constant nodes have no Verilog primitive; MUX is expanded to
    and/or/not gates and constants to self-feeding ties are not supported
    — both raise for now (the generators avoid them in Verilog flows).
    """
    ports = circuit.inputs + circuit.outputs
    lines = [f"module {circuit.name} ({', '.join(ports)});"]
    if circuit.inputs:
        lines.append(f"  input {', '.join(circuit.inputs)};")
    if circuit.outputs:
        lines.append(f"  output {', '.join(circuit.outputs)};")
    wires = [
        node.name
        for node in circuit.nodes()
        if node.type.is_gate and node.name not in circuit.outputs
    ]
    if wires:
        lines.append(f"  wire {', '.join(wires)};")
    counter = 0
    for node in circuit.nodes():
        if node.type is NodeType.INPUT:
            continue
        if node.type not in _TOKEN_FOR:
            raise ParseError(
                f"node {node.name!r}: {node.type.value} has no structural "
                "Verilog primitive"
            )
        counter += 1
        token = _TOKEN_FOR[node.type]
        ports = ", ".join([node.name] + list(node.fanins))
        lines.append(f"  {token} g{counter} ({ports});")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


def dump(circuit: Circuit, path: Union[str, Path]) -> None:
    """Write a circuit to a structural Verilog file."""
    Path(path).write_text(dumps(circuit))
