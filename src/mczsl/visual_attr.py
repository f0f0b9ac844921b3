"""Visual-to-attribute attention sub-net: the cross-attention of attr_visual
read the other way, plus a bilinear region/attribute table that lifts the R
per-region scores to K attribute scores so predictions share the prototype
space. Training reads it from the REGION_SIDE entries of the one weight dict
(`training.forward_both`); this module keeps the sub-net's standalone public
reading on a VisualAttrParams, and the name `intervened` that training calls."""
from __future__ import annotations

from dataclasses import dataclass

from .attr_visual import REGION_SIDE, SubnetForward, cross_attention, intervened, query_products

__all__ = ["VisualAttrParams", "forward", "intervened"]


@dataclass
class VisualAttrParams:
    """w3 scores region/attribute pairs, w4 scores region/attended-mix pairs,
    w_att parameterizes the region-to-attribute lifting table. All D x Da."""

    w3: object
    w4: object
    w_att: object


def forward(V, A, Z, params: VisualAttrParams) -> SubnetForward:
    """Regions attend over attributes: gamma (R x K) = softmax(V w3 A') by
    rows, region r scores v_r' w4 (gamma A)_r, and the table V w_att A' lifts
    the region scores to attribute scores."""
    return cross_attention(query_products(V, vars(params), REGION_SIDE), A, Z)
