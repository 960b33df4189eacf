"""Expected SAM for any subset of a read file.

The repository's invariant is that SAM is byte-identical across engines,
search modes and the CLI/replica/router paths. One `bwaver map` run over a
whole read file therefore gives the expected SAM of every request drawn
from it: the header, then each requested read's alignment lines in request
order."""
import hashlib


def read_fastq(path):
    """[(name, record bytes)] in file order."""
    with open(path, "rb") as handle:
        lines = handle.read().split(b"\n")
    records = []
    for i in range(0, len(lines) - 3, 4):
        if not lines[i].startswith(b"@"):
            raise ValueError("%s: malformed FASTQ at line %d" % (path, i + 1))
        name = lines[i][1:].split()[0].decode()
        records.append((name, b"\n".join(lines[i:i + 4]) + b"\n"))
    return records


def write_fastq(path, records):
    with open(path, "wb") as handle:
        for _, record in records:
            handle.write(record)


class SamOracle:
    def __init__(self, sam_bytes):
        header = []
        self.lines = {}
        for line in sam_bytes.split(b"\n"):
            if not line:
                continue
            if line.startswith(b"@"):
                header.append(line + b"\n")
                continue
            name = line.split(b"\t", 1)[0].decode()
            self.lines.setdefault(name, []).append(line + b"\n")
        self.header = b"".join(header)

    def expected(self, names):
        parts = [self.header]
        for name in names:
            parts.extend(self.lines[name])
        return b"".join(parts)


def digest(data):
    return hashlib.sha256(data).hexdigest()
