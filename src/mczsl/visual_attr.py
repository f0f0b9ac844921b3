"""The region side's name for `attr_visual.intervened`, which training calls for
the visual-to-attribute sub-net so that perfbench traces it as its own span
(`visual_attr.intervened`). The module goes with ROADMAP item 1's span update."""
from .attr_visual import intervened

__all__ = ["intervened"]
