"""Orthic-triangle toolkit: minimal inscribed triangles, the right-orthic
characterization, and the golden-rectangle construction."""
