"""Prometheus text exposition -> {(name, ((label, value), ...)): float}."""
import re

_LINE = re.compile(r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{(.*)\})?\s+(\S+)')
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse(text):
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        match = _LINE.match(line)
        if not match:
            continue
        labels = tuple(sorted(_LABEL.findall(match.group(3) or "")))
        samples[(match.group(1), labels)] = float(match.group(4))
    return samples


def total(samples, name, **labels):
    """Sum of every series of `name` whose labels include `labels`."""
    out = 0.0
    for (metric, series), value in samples.items():
        if metric != name:
            continue
        have = dict(series)
        if all(have.get(k) == v for k, v in labels.items()):
            out += value
    return out
