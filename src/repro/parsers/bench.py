"""ISCAS-85/89 ``.bench`` netlist reader and writer.

The IWLS'02 benchmarks the paper evaluates on are distributed in this
format::

    # comment
    INPUT(G1)
    OUTPUT(G17)
    G10 = NAND(G1, G3)
    G17 = NOT(G10)

:func:`loads` handles the combinational subset (``DFF`` raises there);
:func:`loads_sequential` additionally accepts ``q = DFF(d)`` lines and
returns a :class:`~repro.graph.sequential.SequentialCircuit`.  Both
directions round-trip via :func:`dumps` / :func:`dumps_sequential`.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path
from typing import Dict, List, NoReturn, Union

from ..errors import CircuitError, NotADagError, ParseError, UnknownNodeError
from ..graph.circuit import Circuit, sort_netlist
from ..graph.node import GATE_TOKENS, MAX_FANIN, MIN_FANIN, NodeType

# Line breaks other than "\n" that ``str.splitlines`` honours.
_BREAKS = re.compile("[\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]")
# One match per line of the text once its line breaks are all "\n" (the
# i-th row of ``findall`` is line i), and exactly the line grammar of
# ``.bench``: everything from the first ``#`` on is a comment, the rest,
# stripped, is a declaration ``INPUT(x)``/``OUTPUT(x)`` (keyword in any
# case; the name may hold spaces), a gate ``x = TYPE(a, b, ...)``, or
# empty.  Rows: (keyword, declared name, gate, type token, fanin list,
# anything else).
_WS = r"[^\S\n]*"
_LINE_RE = re.compile(
    rf"^{_WS}(?:"
    rf"((?i:INPUT|OUTPUT)){_WS}\({_WS}([^)#\n]+?){_WS}\)"
    rf"|([^\s#]+){_WS}={_WS}([A-Za-z01]+){_WS}\(([^#\n]*)\)"
    rf"|([^#\n]*?)"
    rf"){_WS}(?:#[^\n]*)?$",
    re.MULTILINE,
)
# The stripped, non-empty comma-separated items of a fanin list.
_FANIN_RE = re.compile(r"[^\s,](?:[^,]*[^\s,])?")
# Type token, lower or upper case -> (type, fewest fanins, most fanins);
# at most 0: the type takes no fanin list (inputs, constants).
_GATES = {
    spelling: (
        node_type,
        MIN_FANIN[node_type],
        sys.maxsize if MAX_FANIN[node_type] is None else MAX_FANIN[node_type],
    )
    for token, node_type in GATE_TOKENS.items()
    for spelling in (token, token.upper())
}

# The spelling ``dumps`` writes for each type.
_TYPE_TOKENS = {
    node_type: node_type.value.upper()
    for node_type in NodeType
    if not node_type.is_input
}


def loads(text: str, name: str = "bench") -> Circuit:
    """Parse combinational ``.bench`` source into a :class:`Circuit`.

    ``DFF`` lines raise; use :func:`loads_sequential` for netlists with
    state elements.
    """
    circuit, _flops, _ = _parse(text, name, allow_dff=False)
    return circuit


def loads_sequential(text: str, name: str = "bench"):
    """Parse a (possibly sequential) ``.bench`` netlist.

    Flip-flops (``q = DFF(d)``) are cut: *q* becomes an INPUT node of
    the embedded combinational netlist (keeping its name), and the
    mapping ``q -> d`` is recorded in ``flops``.  Returns a
    :class:`~repro.graph.sequential.SequentialCircuit`.
    """
    from ..graph.sequential import SequentialCircuit

    circuit, flops, primary_inputs = _parse(text, name, allow_dff=True)
    return SequentialCircuit(
        name=name,
        combinational=circuit,
        flops=flops,
        primary_inputs=primary_inputs,
        primary_outputs=circuit.outputs,
    )


def _parse(text: str, name: str, allow_dff: bool):
    """One scan of ``text`` into insertion-order lists, then one sort.

    Nodes are numbered in definition order while scanning; forward
    references are legal, so fanin names are resolved by
    :func:`~repro.graph.circuit.sort_netlist`, which then renumbers the
    nodes topologically.
    """
    if _BREAKS.search(text):
        text = "\n".join(text.splitlines())
    rows = _LINE_RE.findall(text)
    ids: Dict[str, int] = {}
    names: List[str] = []
    types: List[NodeType] = []
    fanin_names: List[List[str]] = []
    inputs: List[str] = []
    outputs: List[str] = []
    primary_inputs: List[str] = []
    flops: Dict[str, str] = {}
    no_fanins: List[str] = []
    gates, input_type = _GATES, NodeType.INPUT
    split_fanins = _FANIN_RE.findall
    add_name, add_type, add_fanins = (
        names.append, types.append, fanin_names.append
    )
    k = 0  # insertion index of the next node

    for lineno, (keyword, signal, target, token, args, other) in enumerate(
        rows, 1
    ):
        if target:
            gate = gates.get(token) or gates.get(token.lower())
            if gate is None:
                if token.upper() != "DFF":
                    raise ParseError(f"unknown gate type {token!r}", lineno)
                if not allow_dff:
                    raise ParseError(
                        "sequential element DFF is not supported here; "
                        "use loads_sequential()",
                        lineno,
                    )
                fanins = split_fanins(args)
                if len(fanins) != 1:
                    raise ParseError("DFF takes exactly one input", lineno)
                if target in ids:
                    _duplicate(rows, target, lineno)
                # The flop output becomes a pseudo PI; record state map.
                flops[target] = fanins[0]
                inputs.append(target)
                node_type, fanins = input_type, no_fanins
            else:
                node_type, fewest, most = gate
                if target in ids:
                    _duplicate(rows, target, lineno)
                if most:
                    fanins = split_fanins(args)
                    if not fewest <= len(fanins) <= most:
                        raise CircuitError(
                            f"node {target!r}: {node_type.value} gate cannot "
                            f"take {len(fanins)} fanins"
                        )
                elif node_type is input_type:
                    raise CircuitError(
                        "use add_input() to declare primary inputs"
                    )
                else:  # a constant: its fanin list is ignored
                    fanins = no_fanins
            signal = target
        elif keyword:
            if keyword.upper() == "OUTPUT":
                outputs.append(signal)
                continue
            if signal in ids:
                _duplicate(rows, signal, lineno)
            node_type, fanins = input_type, no_fanins
            inputs.append(signal)
            primary_inputs.append(signal)
        elif other:
            raise ParseError(f"unrecognized statement: {other!r}", lineno)
        else:
            continue
        ids[signal] = k
        k += 1
        add_name(signal)
        add_type(node_type)
        add_fanins(fanins)

    if not ids.keys() >= {*flops.values(), *outputs}:
        _dangling(rows, ids)
    try:
        arrays = sort_netlist(name, names, types, fanin_names, ids)
    except UnknownNodeError:
        _dangling(rows, ids)
    except NotADagError as exc:  # a combinational cycle
        raise ParseError(str(exc)) from exc
    circuit = Circuit.from_arrays(
        name, arrays, inputs, list(dict.fromkeys(outputs))
    )
    return circuit, flops, primary_inputs


# The scan keeps no line numbers; an error re-reads its rows (row i is
# line i) for the lines it reports.
def _duplicate(rows, signal: str, lineno: int) -> NoReturn:
    first = next(
        i
        for i, (keyword, declared, target, *_rest) in enumerate(rows, 1)
        if target == signal
        or (declared == signal and keyword.upper() == "INPUT")
    )
    raise ParseError(
        f"duplicate definition of {signal!r} (first defined at line {first})",
        lineno,
    )


def _dangling(rows, ids: Dict[str, int]) -> NoReturn:
    """Raise for the first reference to an undefined signal.

    Fanins (and flip-flop data inputs) come first, in line order, then
    declared outputs at their first ``OUTPUT`` line.
    """
    for lineno, (_kw, _decl, target, token, args, _other) in enumerate(rows, 1):
        node_type = GATE_TOKENS.get(token.lower())
        if target and (node_type is None or not node_type.is_constant):
            for fanin in _FANIN_RE.findall(args):
                if fanin not in ids:
                    raise ParseError(
                        f"gate {target!r} references undefined signal "
                        f"{fanin!r}",
                        lineno,
                    )
    for lineno, (keyword, signal, *_rest) in enumerate(rows, 1):
        if keyword.upper() == "OUTPUT" and signal not in ids:
            raise ParseError(
                f"declared output {signal!r} is never defined", lineno
            )


def load(path: Union[str, Path]) -> Circuit:
    """Read a combinational ``.bench`` file from disk."""
    path = Path(path)
    return loads(path.read_text(), name=path.stem)


def load_sequential(path: Union[str, Path]):
    """Read a (possibly sequential) ``.bench`` file from disk."""
    path = Path(path)
    return loads_sequential(path.read_text(), name=path.stem)


def dumps(circuit: Circuit) -> str:
    """Serialize a circuit to ``.bench`` text (round-trips with loads)."""
    lines: List[str] = [f"# {circuit.name}"]
    for pi in circuit.inputs:
        lines.append(f"INPUT({pi})")
    for out in circuit.outputs:
        lines.append(f"OUTPUT({out})")
    lines += _gate_lines(circuit)
    return "\n".join(lines) + "\n"


def _gate_lines(circuit: Circuit) -> List[str]:
    """``name = TYPE(fanins)`` of every non-input node, in insertion order."""
    return [
        f"{node.name} = {_TYPE_TOKENS[node.type]}({', '.join(node.fanins)})"
        for node in circuit.nodes()
        if node.type is not NodeType.INPUT
    ]


def dump(circuit: Circuit, path: Union[str, Path]) -> None:
    """Write a circuit to a ``.bench`` file."""
    Path(path).write_text(dumps(circuit))


def dumps_sequential(sequential) -> str:
    """Serialize a :class:`SequentialCircuit` to ``.bench`` text.

    Round-trips with :func:`loads_sequential`: flip-flops are re-emitted
    as ``q = DFF(d)`` lines and only the original primary inputs get
    ``INPUT`` declarations (flop outputs are INPUT nodes of the embedded
    combinational netlist, but the DFF line defines them in the file).
    """
    lines: List[str] = [f"# {sequential.name}"]
    for pi in sequential.primary_inputs:
        lines.append(f"INPUT({pi})")
    for out in sequential.primary_outputs:
        lines.append(f"OUTPUT({out})")
    for flop_out, data_in in sequential.flops.items():
        lines.append(f"{flop_out} = DFF({data_in})")
    lines += _gate_lines(sequential.combinational)
    return "\n".join(lines) + "\n"


def dump_sequential(sequential, path: Union[str, Path]) -> None:
    """Write a :class:`SequentialCircuit` to a ``.bench`` file."""
    Path(path).write_text(dumps_sequential(sequential))
