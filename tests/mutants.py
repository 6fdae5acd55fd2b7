"""Seeded byte mutants of a valid input file, shared by the readers' fuzz tests."""

# Tokens a mutant inserts: non-finite and overflowing numbers, a quote, a CR, a
# NUL, and a number too long for a float.
MUTANT_TOKENS = [b"nan", b"1e308", b'"', b"\r", b"\x00", b"9" * 400]


def mutate(data, rng, edges):
    """One seeded mutant of the bytes of a file: a byte flip, a deletion, a
    truncation or an inserted token, at a random byte or at one of ``edges``."""
    pos = rng.choice([rng.randrange(len(data)), rng.choice(edges)])
    kind = rng.randrange(4)
    if kind == 0:
        return data[:pos] + bytes([data[pos] ^ (1 << rng.randrange(8))]) + data[pos + 1 :]
    if kind == 1:
        return data[:pos] + data[pos + rng.randint(1, 3) :]
    if kind == 2:
        return data[:pos]
    return data[:pos] + rng.choice(MUTANT_TOKENS) + data[pos:]
