"""JSON Schemas for every machine-readable output the CLI can emit.

These are plain draft-07 schema dicts that the CLI tests validate its
documents against with jsonschema.  They are written by hand, apart from
the code that produces the documents, so that they check it independently.
"""

_GRID = {
    "type": "object",
    "properties": {
        "x_min": {"type": "number"},
        "x_max": {"type": "number"},
        "n_points": {"type": "integer", "minimum": 3},
    },
    "required": ["x_min", "x_max", "n_points"],
    "additionalProperties": False,
}

_NUMBER_ROW = {"type": "array", "items": {"type": "number"}}

SOLUTION_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "solved bound states",
    "type": "object",
    "properties": {
        "grid": {"oneOf": [_GRID, {"type": "null"}]},
        "energies": {"type": "array", "items": {"type": "number"}},
        "states": {"type": "array", "items": _NUMBER_ROW},
    },
    "required": ["grid", "energies", "states"],
    "additionalProperties": False,
}

TRANSFORM_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "parameter transform",
    "type": "object",
    "properties": {
        "kind": {
            "type": "string",
            "enum": ["translation", "scaling", "power-scaling",
                     "projective", "cyclic"],
        },
        "alpha": {"type": "number"},
        "q": {"type": "number"},
        "p": {"type": "number"},
        "param": {"type": ["string", "null"]},
        "period": {"type": "integer", "minimum": 1},
        "values": {"type": "array", "items": {"type": "object"}},
    },
    "required": ["kind"],
    "additionalProperties": False,
}

RESIDUAL_REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "shape-invariance residual report",
    "type": "object",
    "properties": {
        "residual_mean": {"type": "number"},
        "residual_stddev": {"type": "number"},
        "passed": {"type": "boolean"},
        "tolerance_used": {"type": "number"},
    },
    "required": ["residual_mean", "residual_stddev", "passed", "tolerance_used"],
    "additionalProperties": False,
}

SI_CHECK_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "shape-invariance check",
    "type": "object",
    "properties": {
        "transform": TRANSFORM_SCHEMA,
        "params_start": {"type": "object"},
        "params_next": {"type": "object"},
        "report": RESIDUAL_REPORT_SCHEMA,
        "searched": {"type": "boolean"},
        "found": {"type": "boolean"},
    },
    "required": ["searched", "found"],
    "additionalProperties": False,
}

SPECTRUM_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "algebraic spectrum",
    "type": "object",
    "properties": {
        "entries": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "n": {"type": "integer", "minimum": 0},
                    "energy": {"type": "number"},
                    "valid": {"type": "boolean"},
                },
                "required": ["n", "energy", "valid"],
                "additionalProperties": False,
            },
        },
        "truncated": {"type": "boolean"},
    },
    "required": ["entries", "truncated"],
    "additionalProperties": False,
}

PARTNER_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "partner potentials and superpotential",
    "type": "object",
    "properties": {
        "grid": _GRID,
        "x": _NUMBER_ROW,
        "v_minus": _NUMBER_ROW,
        "v_plus": _NUMBER_ROW,
        "w": _NUMBER_ROW,
    },
    "required": ["grid", "x", "v_minus", "v_plus", "w"],
    "additionalProperties": False,
}

SPECTRUM_TABLE_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "algebraic vs oracle spectrum table",
    "type": "object",
    "properties": {
        "levels": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "n": {"type": "integer", "minimum": 0},
                    "algebraic": {"type": "number"},
                    "oracle": {"type": ["number", "null"]},
                },
                "required": ["n", "algebraic", "oracle"],
                "additionalProperties": False,
            },
        },
        "truncated": {"type": "boolean"},
    },
    "required": ["levels", "truncated"],
    "additionalProperties": False,
}

WAVEFUNCTIONS_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "chain-built wavefunctions",
    "type": "object",
    "properties": {
        "grid": _GRID,
        "states": {"type": "array", "items": _NUMBER_ROW},
        "node_counts": {
            "type": "array",
            "items": {"type": "integer", "minimum": 0},
        },
    },
    "required": ["grid", "states", "node_counts"],
    "additionalProperties": False,
}

HIERARCHY_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "partner hierarchy summary",
    "type": "object",
    "properties": {
        "levels": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "depth": {"type": "integer", "minimum": 0},
                    "ground_energy": {"type": ["number", "null"]},
                    "potential_csv_ref": {"type": "string"},
                },
                "required": ["depth", "ground_energy", "potential_csv_ref"],
                "additionalProperties": False,
            },
        },
        "truncated": {"type": "boolean"},
        "note": {"type": ["string", "null"]},
    },
    "required": ["levels", "truncated", "note"],
    "additionalProperties": False,
}

ALGEBRA_REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "charge algebra report",
    "type": "object",
    "properties": {
        "q_squared": {"type": "number"},
        "q_dagger_squared": {"type": "number"},
        "anticommutator_defect": {"type": "number"},
        "q_commutator": {"type": "number"},
        "q_dagger_commutator": {"type": "number"},
        "h_scale": {"type": "number"},
        "tolerance": {"type": "number"},
        "passed": {"type": "boolean"},
    },
    "required": ["q_squared", "q_dagger_squared", "anticommutator_defect",
                 "q_commutator", "q_dagger_commutator", "h_scale",
                 "tolerance", "passed"],
    "additionalProperties": False,
}

VENN_TAG_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "four-set membership tag",
    "type": "object",
    "properties": {
        "susy": {"type": "string", "enum": ["yes", "no", "unknown"]},
        "shape_invariant": {
            "type": "string",
            "enum": ["yes", "no-within-search", "unknown"],
        },
        "ih_factorizable": {
            "type": "string",
            "enum": ["yes", "no-within-search", "unknown"],
        },
        "exactly_solvable": {
            "type": "string",
            "enum": ["certified", "unknown"],
        },
        "evidence": {"type": "array", "items": {"type": "object"}},
    },
    "required": ["susy", "shape_invariant", "ih_factorizable",
                 "exactly_solvable", "evidence"],
    "additionalProperties": False,
}

CATALOG_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "shape-invariant family catalog",
    "type": "array",
    "items": {
        "type": "object",
        "properties": {
            "name": {"type": "string"},
            "expression": {"type": ["string", "null"]},
            "transform": TRANSFORM_SCHEMA,
            "r_closed_form": {"type": "string"},
            "default_params": {"type": "object"},
            "domain": {
                "oneOf": [
                    {"type": "array", "minItems": 3, "maxItems": 3},
                    {"type": "null"},
                ],
            },
            "min_x": {"type": ["number", "null"]},
            "notes": {"type": "string"},
        },
        "required": ["name", "expression", "transform", "r_closed_form",
                     "default_params", "domain", "min_x", "notes"],
        "additionalProperties": False,
    },
}

RUN_CONFIG_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "effective run configuration",
    "type": "object",
    "properties": {
        "command": {"type": "string"},
        "grid": _GRID,
        "params": {"type": "object"},
        "n_levels": {"type": "integer", "minimum": 0},
        "depth": {"type": "integer", "minimum": 0},
        "tolerance": {"type": ["number", "null"]},
        "budget": {"type": "integer", "minimum": 1},
        "input": {"type": "object"},
        "output": {"type": ["string", "null"]},
    },
    "required": ["command", "grid", "params", "input"],
    "additionalProperties": True,
}
