"""Visualization substrate: marching cubes, software rendering, Catalyst-like API.

The paper renders a 45 dBZ isosurface of the reflectivity through ParaView
Catalyst (marching cubes + mesh rendering), plus 2-D colormaps.  This package
provides the equivalent building blocks in pure NumPy:

* :func:`marching_cubes` — isosurface extraction by marching tetrahedra
  (six tetrahedra per cell, 16 cases each), and its batched twin
  :func:`extract_isosurface_batch` over a stacked group of blocks;
* :class:`TriangleMesh` — the extracted geometry;
* :class:`Camera`, :class:`Framebuffer`, :func:`rasterize_mesh` — a z-buffered
  Lambert-shaded software rasterizer producing actual images;
* :func:`render_colormap_slice`, :func:`volume_max_projection` — the 2-D
  colormap and volume-rendering-style scenarios of Figure 1;
* :class:`CatalystPipeline` and the script classes — an in situ co-processing
  API shaped like ParaView Catalyst's Python pipelines, which is what the core
  pipeline's rendering step drives.
"""

from repro.viz.mesh import TriangleMesh
from repro.viz.marching_cubes import (
    marching_cubes,
    extract_isosurface,
    extract_isosurface_batch,
    count_active_cells,
    count_active_cells_batch,
)
from repro.viz.camera import Camera
from repro.viz.framebuffer import Framebuffer
from repro.viz.rasterizer import rasterize_mesh
from repro.viz.colormap import grayscale, viridis_like, apply_colormap
from repro.viz.slice_render import render_colormap_slice
from repro.viz.volume import volume_max_projection, composite_volume
from repro.viz.catalyst import (
    CatalystPipeline,
    IsosurfaceScript,
    ColormapScript,
    RenderResult,
)

__all__ = [
    "TriangleMesh",
    "marching_cubes",
    "extract_isosurface",
    "extract_isosurface_batch",
    "count_active_cells",
    "count_active_cells_batch",
    "Camera",
    "Framebuffer",
    "rasterize_mesh",
    "grayscale",
    "viridis_like",
    "apply_colormap",
    "render_colormap_slice",
    "volume_max_projection",
    "composite_volume",
    "CatalystPipeline",
    "IsosurfaceScript",
    "ColormapScript",
    "RenderResult",
]
