"""JSON document formats for quivers, groups, cocycles, and actions.

Weights travel as strings "p/q" (or integer strings) so the JSON layer
never touches floating point.  Emitted documents re-parse to equal values;
on canonical documents (sorted ids, reduced fractions) parse . emit is the
identity byte-for-byte.

Each document is read once, here: the quiver parser writes the quiver's index
view as it reads the edge records, and the action parser builds what the
action determines on the quiver, which also shows that every image is one of
the quiver's (string) ids.  Past the boundary, layers read integer positions.
"""

import itertools
import json
import re
from fractions import Fraction
from operator import itemgetter

from .quiver import Edge, FiniteQuiver, _Index
from .group import (
    MAX_ORDER,
    FiniteGroup,
    GroupError,
    QuiverAction,
    _facts,
    make_cyclic,
    make_symmetric,
    validate_group,
)
from .skew import Cocycle


class ParseError(ValueError):
    pass


_FRACTION_RE = re.compile(r"^-?\d+(/\d+)?$")


def parse_fraction(s):
    if not isinstance(s, str) or not _FRACTION_RE.match(s):
        raise ParseError(f"weight must be a string like '3' or '5/7', got {s!r}")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ParseError(f"weight has a zero denominator: {s!r}") from None
    except ValueError as exc:  # more digits than int() accepts
        raise ParseError(f"weight: {exc}") from None


def fraction_str(f):
    f = Fraction(f)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _require(obj, key, typ, what):
    if not isinstance(obj, dict) or key not in obj:
        raise ParseError(f"{what}: missing field {key!r}")
    val = obj[key]
    if not isinstance(val, typ) or type(val) is bool:  # JSON true passes isinstance(val, int)
        raise ParseError(f"{what}: field {key!r} has wrong type")
    return val


def _strings(items):
    return all(map(isinstance, items, itertools.repeat(str)))


_EDGE_FIELDS = ("id", "src", "rng", "weight")
_edge_fields = itemgetter(*_EDGE_FIELDS)


def parse_quiver_document(obj):
    """A quiver from its document, with its index view (see ``FiniteQuiver.index``)
    written as the edge records are read; each distinct weight string is parsed once.

    If an endpoint is not a vertex, the quiver gets no view: ``validate_quiver``
    reports the endpoint, and ``index`` raises KeyError as it does on any such quiver.
    """
    vertices = tuple(_require(obj, "vertices", list, "quiver document"))
    raw_edges = _require(obj, "edges", list, "quiver document")
    if not _strings(vertices):
        raise ParseError("quiver document: vertices must be strings")
    try:  # KeyError: a missing field; TypeError: a record that is no mapping
        columns = tuple(zip(*map(_edge_fields, raw_edges))) or ((),) * 4
        ok = all(map(isinstance, raw_edges, itertools.repeat(dict))) and all(map(_strings, columns))
    except (KeyError, TypeError):
        ok = False
    if not ok:
        for rec in raw_edges:  # raises the first bad record's message, in record order
            for key in _EDGE_FIELDS:
                _require(rec, key, str, "edge record")
            parse_fraction(rec["weight"])
    ids, srcs, rngs, texts = columns
    weights, classes, class_of = {}, {}, {}
    for text in dict.fromkeys(texts):
        w = weights[text] = parse_fraction(text)
        class_of[text] = classes.setdefault(w.as_integer_ratio(), len(classes))
    edges = tuple(map(tuple.__new__, itertools.repeat(Edge),
                      zip(ids, srcs, rngs, map(weights.__getitem__, texts))))
    pos = {v: i for i, v in enumerate(vertices)}
    try:
        src, rng = tuple(map(pos.__getitem__, srcs)), tuple(map(pos.__getitem__, rngs))
    except KeyError:
        return FiniteQuiver(vertices, edges)
    out = [[] for _ in vertices]
    for i, s in enumerate(src):
        out[s].append(i)
    return FiniteQuiver._indexed(vertices, edges, _Index(
        pos, src, rng, tuple(map(class_of.__getitem__, texts)), classes, tuple(map(tuple, out))))


def emit_quiver_document(q):
    return {
        "vertices": list(q.vertices),
        "edges": [
            {"id": e.id, "src": e.src, "rng": e.rng, "weight": fraction_str(e.weight)}
            for e in q.edges
        ],
    }


def parse_group_document(obj):
    kind = _require(obj, "kind", str, "group document")
    try:
        if kind == "cyclic":
            return make_cyclic(_require(obj, "n", int, "group document"))
        if kind == "symmetric":
            return make_symmetric(_require(obj, "n", int, "group document"))
    except GroupError as exc:
        raise ParseError(f"group document: {exc}") from None
    if kind == "table":
        elements = _require(obj, "elements", list, "group document")
        if len(elements) > MAX_ORDER:
            raise ParseError(f"group document: order above {MAX_ORDER} is out of scope")
        if not _strings(elements):
            raise ParseError("group document: elements must be strings")
        identity = _require(obj, "identity", str, "group document")
        rows = _require(obj, "table", list, "group document")
        if not all(isinstance(r, list) and _strings(r) for r in rows):
            raise ParseError("group document: table rows must be lists of strings")
        if len(rows) != len(elements) or any(len(r) != len(elements) for r in rows):
            raise ParseError("group document: table shape must be n x n")
        group = FiniteGroup(elements, {g: zip(elements, row) for g, row in zip(elements, rows)},
                            identity)
        bad = validate_group(group)
        if bad:
            raise ParseError(f"group document: {bad[0]}")
        return group
    raise ParseError(f"group document: unknown kind {kind!r}")


def parse_cocycle_document(obj, q):
    group = parse_group_document(_require(obj, "group", dict, "cocycle document"))
    mapping = _require(obj, "map", dict, "cocycle document")
    els = set(group.elements)
    for eid, g in mapping.items():
        if not isinstance(g, str) or g not in els:
            raise ParseError(f"cocycle document: {g!r} is not a group element")
        if not q.has_edge(eid):
            raise ParseError(f"cocycle document: {eid!r} is not an edge")
    for e in q.edges:
        if e.id not in mapping:
            raise ParseError(f"cocycle document: no value for edge {e.id!r}")
    return Cocycle(group, dict(mapping))


def parse_action_document(obj, q):
    """The action of its document on q, a quiver that validates, with what the
    action determines on q built (see ``group``).

    Its tables must map to strings.  When every id of q is a string, translating
    a table onto q's items proves that of its images, so the images are tested
    one by one only if some table does not translate or q has another id.
    """
    group = parse_group_document(_require(obj, "group", dict, "action document"))
    vperm = _require(obj, "vperm", dict, "action document")
    eperm = _require(obj, "eperm", dict, "action document")
    els = group.elements
    if all(g in t and isinstance(t[g], dict) for g in els for t in (vperm, eperm)):
        action = QuiverAction(group, {g: vperm[g] for g in els}, {g: eperm[g] for g in els})
        facts = _facts(q, action)
        if not facts.error and _strings(facts.vertices.items) and _strings(facts.edges.items):
            return action
    for g in els:  # the first element whose tables are missing or not string-valued
        if g not in vperm or g not in eperm:
            raise ParseError(f"action document: missing permutations for {g!r}")
        for perm in (vperm[g], eperm[g]):
            if not isinstance(perm, dict) or not _strings(perm.values()):
                raise ParseError(
                    f"action document: permutation for {g!r} must map strings to strings"
                )
    return action


def dumps(obj):
    """Deterministic JSON encoding used for every emitted document.

    The text is exactly ``json.dumps(obj, indent=2) + "\\n"``, byte for byte,
    for every obj that call accepts.  It is written by ``_emit`` instead of the
    standard library's pure-Python indent encoder: strings go through the C
    ``encode_basestring_ascii``, ints through ``int.__repr__``, a list of only
    str or only int is joined in one call, and so is each entry of a dict whose
    values are all non-empty lists (or tuples) of str, such as a witness's
    ``phi`` and ``sigma``.
    """
    out = []
    _emit(obj, "\n", out)
    out.append("\n")
    return "".join(out)


_quote = json.encoder.encode_basestring_ascii
# The item encoder of a list whose items are all of one of these types, joined in one call.
_JOINED = {frozenset([str]): _quote, frozenset([int]): int.__repr__}


def _key(k):
    """A dict key as json.dumps writes it: str as it is; float, int, bool and None
    by their JSON text."""
    if isinstance(k, str):
        return k
    if k is None or isinstance(k, (int, float)):
        return json.dumps(k)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")


def _emit(o, ind, out):
    """Append to ``out`` the text json.dumps(o, indent=2) writes for o at the depth
    whose newline and indent is ``ind``."""
    if isinstance(o, str):
        out.append(_quote(o))
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = ind + "  "
        encode = _JOINED.get(frozenset(map(type, o)))
        if encode:
            out += ("[", inner, ("," + inner).join(map(encode, o)))
        else:
            sep = "[" + inner
            for x in o:
                out.append(sep)
                _emit(x, inner, out)
                sep = "," + inner
        out += (ind, "]")
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = ind + "  "
        lists = o.values()
        if (all(map(isinstance, lists, itertools.repeat((list, tuple)))) and all(lists)
                and _strings(itertools.chain.from_iterable(lists))):
            # Every value a non-empty list of str: one join per entry.
            deeper = inner + "  "
            head, sep, tail = ": [" + deeper, "," + deeper, inner + "]"
            out += ("{", inner, ("," + inner).join([
                _quote(_key(k)) + head + sep.join(map(_quote, v)) + tail for k, v in o.items()]),
                ind, "}")
            return
        sep = "{" + inner
        for k, v in o.items():
            out += (sep, _quote(_key(k)), ": ")
            _emit(v, inner, out)
            sep = "," + inner
        out += (ind, "}")
    elif isinstance(o, int) and not isinstance(o, bool):
        out.append(int.__repr__(o))
    else:  # bool, None, float; json.dumps raises TypeError for anything else
        out.append(json.dumps(o))


def _dot_quote(s):
    """A DOT quoted string: backslash and double quote escaped."""
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(q):
    """Graphviz digraph with edge labels 'id:weight'."""
    lines = ["digraph quiver {"]
    for v in q.vertices:
        lines.append(f"  {_dot_quote(v)};")
    for e in q.edges:
        label = _dot_quote(f"{e.id}:{fraction_str(e.weight)}")
        lines.append(f"  {_dot_quote(e.src)} -> {_dot_quote(e.rng)} [label={label}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
