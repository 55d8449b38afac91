"""JSON (de)serialization of route records.

The wire format is one JSON object per record.  Paths are stored in
their textual dump form (``"1 2 {3,4}"``) and prefixes as strings, so
archives are greppable and diffable.

Decoding goes through a :class:`DecodeMemo`: collector data repeats the
same AS paths and attribute bundles across prefixes and vantage points,
so each distinct value is decoded once and shared by every element
that carries it.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional, Tuple

from repro.bgp.attributes import Community, PathAttributes
from repro.bgp.messages import ElementType, RouteElement, RouteRecord
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix

#: Attribute bundles a memo holds before it starts over, which bounds
#: its memory by this cap rather than by the length of a read.
MEMO_CAP = 1 << 16


class DecodeMemo:
    """The AS paths and attribute bundles one reader has decoded.

    Each distinct path text is parsed once into one :class:`ASPath`,
    and each distinct (path, communities, MED) bundle becomes one
    :class:`PathAttributes` shared by every element that carries it.
    Both are immutable and every consumer compares them by value, so
    sharing changes no result; it lets identity short-circuit equality
    downstream (RIB tables, the atom kernel's per-call L1, intern-pool
    dict probes).  Only successful decodes are memoised.
    ``paths_parsed`` and ``attributes_built`` count the decodes made.
    """

    __slots__ = ("paths", "bundles", "paths_parsed", "attributes_built")

    def __init__(self) -> None:
        self.paths: Dict[str, ASPath] = {}
        self.bundles: Dict[Tuple[str, Tuple[str, ...], int], PathAttributes] = {}
        self.paths_parsed = 0
        self.attributes_built = 0

    def attributes(
        self, path_text: str, communities: Tuple[str, ...], med: int
    ) -> PathAttributes:
        """The shared bundle for one element's attribute fields."""
        key = (path_text, communities, med)
        bundle = self.bundles.get(key)
        if bundle is not None:
            return bundle
        path = self.paths.get(path_text)
        parsed = path is None
        if path is None:
            path = ASPath.parse(path_text)
        bundle = PathAttributes(
            path, [Community.parse(c) for c in communities], med=med
        )
        # Both texts decoded: only now may anything be memoised.
        if len(self.bundles) >= MEMO_CAP:
            self.paths.clear()
            self.bundles.clear()
        if parsed:
            self.paths[path_text] = path
            self.paths_parsed += 1
        self.bundles[key] = bundle
        self.attributes_built += 1
        return bundle


def element_to_dict(element: RouteElement) -> Dict[str, Any]:
    """Serialise one element to its JSON dict form."""
    payload: Dict[str, Any] = {
        "t": element.element_type.value,
        "p": str(element.prefix),
    }
    if element.attributes is not None:
        payload["path"] = str(element.attributes.as_path)
        if element.attributes.communities:
            payload["comm"] = sorted(
                str(c) for c in element.attributes.communities
            )
        if element.attributes.med:
            payload["med"] = element.attributes.med
    return payload


def element_from_dict(
    payload: Dict[str, Any], memo: Optional[DecodeMemo] = None
) -> RouteElement:
    """Parse one element from its JSON dict form, sharing through ``memo``."""
    if memo is None:
        memo = DecodeMemo()
    attributes = None
    if "path" in payload:
        attributes = memo.attributes(
            payload["path"],
            tuple(payload.get("comm", ())),
            payload.get("med", 0),
        )
    return RouteElement(
        ElementType(payload["t"]), Prefix.parse(payload["p"]), attributes
    )


def record_to_json(record: RouteRecord) -> str:
    """Serialise a record to one JSON line."""
    payload = {
        "type": record.record_type,
        "project": record.project,
        "collector": record.collector,
        "peer_asn": record.peer_asn,
        "peer_addr": record.peer_address,
        "time": record.timestamp,
        "elements": [element_to_dict(e) for e in record.elements],
    }
    if record.corrupt_warning:
        payload["warning"] = record.corrupt_warning
    return json.dumps(payload, separators=(",", ":"))


def record_from_json(line: str, memo: Optional[DecodeMemo] = None) -> RouteRecord:
    """Parse a record from one JSON line.

    ``memo`` shares decoded values across records (an archive handle
    passes its own); without one, the record gets a memo of its own.
    """
    if memo is None:
        memo = DecodeMemo()
    payload = json.loads(line)
    return RouteRecord(
        payload["type"],
        payload["project"],
        payload["collector"],
        payload["peer_asn"],
        payload["peer_addr"],
        payload["time"],
        [element_from_dict(e, memo) for e in payload["elements"]],
        corrupt_warning=payload.get("warning", ""),
    )
