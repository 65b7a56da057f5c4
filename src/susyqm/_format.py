"""The number format of every text the package writes.  It imports nothing,
so the CLI writes a catalog document without loading numpy."""

#: Significant digits used by the text serializers (bit-exact output contract).
FLOAT_FMT = "%.12g"
