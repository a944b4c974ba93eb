"""The textual IR subset: data model, parser, printer, validator and def-use graph."""
