//! Synthetic Web-site model.
//!
//! Generates a 1998-plausible site: a directory tree, HTML pages with
//! embedded images (a mix of per-page images and shared site-wide icons),
//! and an HREF link graph with directory locality. The structure is what
//! gives directory-based volumes their predictive power (Figure 1), and
//! the page→embedded-image bursts are what probability-based volumes learn
//! (Section 3.3).

use crate::synth::samplers::LogNormal;
use piggyback_core::table::ResourceTable;
use piggyback_core::types::{ResourceId, Timestamp};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::fmt::Write;

/// Parameters of a synthetic site.
#[derive(Debug, Clone)]
pub struct SiteConfig {
    /// Prepended to every path (used to embed a host name in multi-server
    /// client traces); empty for single-site server logs.
    pub path_prefix: String,
    /// Number of HTML pages.
    pub n_pages: usize,
    /// Number of directories (including the root).
    pub n_dirs: usize,
    /// Maximum directory nesting depth.
    pub max_depth: usize,
    /// Inclusive range of embedded images per page.
    pub images_per_page: (usize, usize),
    /// Site-wide shared images (logos, bullets) living under `/icons`.
    pub shared_images: usize,
    /// Probability an image slot reuses a shared icon instead of a
    /// page-local image.
    pub image_share_prob: f64,
    /// Where page-local images live: alongside their page, or under a
    /// site-wide `/img` tree (common 1998 practice; matters for how deep
    /// directory volumes capture page+image bursts, Figure 1).
    pub images_in_page_dir: bool,
    /// Inclusive range of HREF links per page.
    pub links_per_page: (usize, usize),
    /// Probability a link targets a page in the same directory.
    pub link_locality: f64,
    /// HTML body size distribution (bytes).
    pub page_size: LogNormal,
    /// Image size distribution (bytes).
    pub image_size: LogNormal,
    pub seed: u64,
}

impl Default for SiteConfig {
    fn default() -> Self {
        SiteConfig {
            path_prefix: String::new(),
            n_pages: 200,
            n_dirs: 24,
            max_depth: 3,
            images_per_page: (0, 4),
            shared_images: 6,
            image_share_prob: 0.5,
            images_in_page_dir: true,
            links_per_page: (2, 8),
            link_locality: 0.7,
            // Paper: median response 1530 bytes, mean 13900.
            page_size: LogNormal::from_median_mean(1530.0, 13900.0),
            image_size: LogNormal::from_median_mean(2000.0, 8000.0),
            seed: 42,
        }
    }
}

/// One page: its resource, directory, embedded images, and outgoing links.
#[derive(Debug, Clone)]
pub struct Page {
    pub resource: ResourceId,
    pub dir: usize,
    pub images: Vec<ResourceId>,
    /// Indices into [`Site::pages`].
    pub links: Vec<usize>,
}

/// A generated site: pages, link graph, and directory structure. Resource
/// paths and metadata live in the [`ResourceTable`] the site was generated
/// into.
#[derive(Debug, Clone)]
pub struct Site {
    pub pages: Vec<Page>,
    /// Directory paths; `dirs[0]` is the root.
    pub dirs: Vec<String>,
    /// All resource ids belonging to this site (pages + images).
    pub resources: Vec<ResourceId>,
}

impl Site {
    /// Generate a site into a fresh table.
    pub fn generate(cfg: &SiteConfig) -> (ResourceTable, Site) {
        let mut table = ResourceTable::new();
        let site = Self::generate_into(cfg, &mut table);
        (table, site)
    }

    /// Generate only the site's resource table: the ids, paths, sizes,
    /// content types and `Last-Modified` values of
    /// `Site::generate(cfg).0`, allocated at its final size, with no page
    /// list, image lists or link graph built. A first pass draws the same
    /// resources without registering them, only to count them.
    pub fn generate_table(cfg: &SiteConfig) -> ResourceTable {
        let mut count = 0u32;
        draw_resources(
            cfg,
            &mut StdRng::seed_from_u64(cfg.seed),
            |_, _| {
                count += 1;
                ResourceId(count - 1)
            },
            |_| {},
        );
        let mut table = ResourceTable::with_capacity(count as usize);
        draw_resources(
            cfg,
            &mut StdRng::seed_from_u64(cfg.seed),
            |path, size| table.register_path(path, size, Timestamp::ZERO),
            |_| {},
        );
        table
    }

    /// Generate a site, registering its resources into `table` (shared
    /// across sites in multi-server traces).
    pub fn generate_into(cfg: &SiteConfig, table: &mut ResourceTable) -> Site {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut resources = Vec::new();
        let mut pages: Vec<Page> = Vec::with_capacity(cfg.n_pages);
        let dirs = draw_resources(
            cfg,
            &mut rng,
            |path, size| {
                let id = table.register_path(path, size, Timestamp::ZERO);
                resources.push(id);
                id
            },
            |page| pages.push(page),
        );

        // Link graph with directory locality, drawn after every resource
        // is registered.
        let mut pages_in_dir: Vec<Vec<usize>> = vec![Vec::new(); dirs.len()];
        for (i, page) in pages.iter().enumerate() {
            pages_in_dir[page.dir].push(i);
        }
        for i in 0..pages.len() {
            let n_links = rng.random_range(cfg.links_per_page.0..=cfg.links_per_page.1);
            let dir = pages[i].dir;
            let mut links = Vec::with_capacity(n_links);
            for _ in 0..n_links {
                let local = &pages_in_dir[dir];
                let target = if rng.random::<f64>() < cfg.link_locality && local.len() > 1 {
                    local[rng.random_range(0..local.len())]
                } else {
                    rng.random_range(0..pages.len())
                };
                if target != i {
                    links.push(target);
                }
            }
            links.sort_unstable();
            links.dedup();
            pages[i].links = links;
        }

        Site {
            pages,
            dirs,
            resources,
        }
    }

    /// Total resources (pages + distinct images).
    pub fn resource_count(&self) -> usize {
        self.resources.len()
    }
}

/// Draw the directory tree, the shared icons and every page with its
/// embedded images from `rng`, handing each resource's path and size to
/// `register` in id order and each page (links not yet drawn) to `page`.
/// Returns the directory paths. The one registration routine behind
/// [`Site::generate_into`] and [`Site::generate_table`], so the two cannot
/// drift.
fn draw_resources(
    cfg: &SiteConfig,
    rng: &mut StdRng,
    mut register: impl FnMut(&str, u64) -> ResourceId,
    mut page: impl FnMut(Page),
) -> Vec<String> {
    assert!(cfg.n_pages > 0, "a site needs at least one page");
    assert!(cfg.n_dirs > 0, "a site needs at least the root directory");

    // Directory tree: each new directory hangs off an existing one that
    // has not reached max depth. Half the time the parent is the most
    // recently created eligible directory, producing the deep chains
    // (/a/b/c/d) real sites exhibit; otherwise a random one, producing
    // breadth.
    let mut dirs: Vec<String> = vec![String::new()]; // root ("" + "/file")
    let mut depths: Vec<usize> = vec![0];
    for i in 1..cfg.n_dirs {
        let parent = if rng.random::<f64>() < 0.5 && depths[dirs.len() - 1] < cfg.max_depth {
            dirs.len() - 1
        } else {
            let mut p = rng.random_range(0..dirs.len());
            let mut guard = 0;
            while depths[p] >= cfg.max_depth && guard < 32 {
                p = rng.random_range(0..dirs.len());
                guard += 1;
            }
            if depths[p] >= cfg.max_depth {
                0
            } else {
                p
            }
        };
        dirs.push(format!("{}/d{}", dirs[parent], i));
        depths.push(depths[parent] + 1);
    }

    // Every path is written into one reused buffer; the table keeps its
    // own copy.
    let mut buf = String::new();

    // Shared icons.
    let prefix = &cfg.path_prefix;
    let shared: Vec<ResourceId> = (0..cfg.shared_images)
        .map(|i| {
            let size = cfg.image_size.sample(rng).max(64.0) as u64;
            register(
                fill(&mut buf, format_args!("{prefix}/icons/shared{i}.gif")),
                size,
            )
        })
        .collect();

    // Pages with embedded images.
    for i in 0..cfg.n_pages {
        let dir = rng.random_range(0..dirs.len());
        let size = cfg.page_size.sample(rng).max(128.0) as u64;
        let resource = register(
            fill(&mut buf, format_args!("{prefix}{}/p{i}.html", dirs[dir])),
            size,
        );

        let n_imgs = rng.random_range(cfg.images_per_page.0..=cfg.images_per_page.1);
        let mut images = Vec::with_capacity(n_imgs);
        for j in 0..n_imgs {
            if !shared.is_empty() && rng.random::<f64>() < cfg.image_share_prob {
                images.push(shared[rng.random_range(0..shared.len())]);
            } else {
                let isize = cfg.image_size.sample(rng).max(64.0) as u64;
                let ipath = if cfg.images_in_page_dir {
                    fill(
                        &mut buf,
                        format_args!("{prefix}{}/p{i}_img{j}.gif", dirs[dir]),
                    )
                } else {
                    fill(&mut buf, format_args!("{prefix}/img/p{i}_img{j}.gif"))
                };
                images.push(register(ipath, isize));
            }
        }
        page(Page {
            resource,
            dir,
            images,
            links: Vec::new(),
        });
    }
    dirs
}

/// `args` written into `buf` in place of what it held.
fn fill<'b>(buf: &'b mut String, args: std::fmt::Arguments<'_>) -> &'b str {
    buf.clear();
    buf.write_fmt(args).expect("a String takes any write");
    buf
}

#[cfg(test)]
mod tests {
    use super::*;
    use piggyback_core::intern::directory_prefix;
    use piggyback_core::types::ContentType;

    #[test]
    fn generation_is_deterministic() {
        let cfg = SiteConfig::default();
        let (t1, s1) = Site::generate(&cfg);
        let (t2, s2) = Site::generate(&cfg);
        assert_eq!(s1.pages.len(), s2.pages.len());
        assert_eq!(s1.resource_count(), s2.resource_count());
        assert_eq!(t1.len(), t2.len());
        for (a, b) in s1.pages.iter().zip(&s2.pages) {
            assert_eq!(a.resource, b.resource);
            assert_eq!(a.links, b.links);
        }
    }

    /// The table-only path registers exactly what the full generation
    /// does: same ids, paths, sizes, content types and `Last-Modified`.
    #[test]
    fn generate_table_matches_the_full_generation() {
        let configs = [
            SiteConfig::default(),
            SiteConfig {
                n_pages: 300,
                images_per_page: (0, 0),
                shared_images: 0,
                ..Default::default()
            },
            SiteConfig {
                images_in_page_dir: false,
                seed: 7,
                ..Default::default()
            },
            SiteConfig {
                path_prefix: "/www.example.com".into(),
                seed: 9,
                ..Default::default()
            },
        ];
        for cfg in &configs {
            let (full, site) = Site::generate(cfg);
            let table = Site::generate_table(cfg);
            assert_eq!(table.len(), full.len(), "{cfg:?}");
            assert_eq!(table.len(), site.resource_count(), "{cfg:?}");
            for ((id, path, meta), (fid, fpath, fmeta)) in table.iter().zip(full.iter()) {
                assert_eq!((id, path, meta), (fid, fpath, fmeta), "{cfg:?}");
                assert_eq!(table.lookup(path), Some(id));
            }
        }
    }

    #[test]
    fn pages_have_sane_structure() {
        let cfg = SiteConfig::default();
        let (table, site) = Site::generate(&cfg);
        assert_eq!(site.pages.len(), cfg.n_pages);
        assert_eq!(site.dirs.len(), cfg.n_dirs);
        for page in &site.pages {
            let meta = table.meta(page.resource).unwrap();
            assert_eq!(meta.content_type, ContentType::Html);
            assert!(meta.size >= 128);
            assert!(page.images.len() <= cfg.images_per_page.1);
            for &l in &page.links {
                assert!(l < site.pages.len());
            }
            for &img in &page.images {
                assert_eq!(table.meta(img).unwrap().content_type, ContentType::Image);
            }
        }
    }

    #[test]
    fn depth_bounded() {
        let cfg = SiteConfig {
            n_dirs: 100,
            max_depth: 2,
            ..Default::default()
        };
        let (_, site) = Site::generate(&cfg);
        for d in &site.dirs {
            let depth = d.matches('/').count();
            assert!(depth <= 2, "dir {d} deeper than max_depth");
        }
    }

    #[test]
    fn prefix_embeds_host() {
        let cfg = SiteConfig {
            path_prefix: "/www.example.com".into(),
            n_pages: 10,
            ..Default::default()
        };
        let (table, site) = Site::generate(&cfg);
        for &r in &site.resources {
            let path = table.path(r).unwrap();
            assert!(path.starts_with("/www.example.com/"), "path {path}");
            assert_eq!(directory_prefix(path, 1), "/www.example.com");
        }
    }

    #[test]
    fn shared_icons_are_reused() {
        let cfg = SiteConfig {
            n_pages: 100,
            images_per_page: (2, 4),
            shared_images: 3,
            image_share_prob: 0.9,
            ..Default::default()
        };
        let (_, site) = Site::generate(&cfg);
        let mut counts = std::collections::HashMap::new();
        for p in &site.pages {
            for &i in &p.images {
                *counts.entry(i).or_insert(0usize) += 1;
            }
        }
        let max_reuse = counts.values().copied().max().unwrap_or(0);
        assert!(max_reuse > 10, "shared icons should appear on many pages");
    }

    #[test]
    fn link_locality_respected() {
        let cfg = SiteConfig {
            n_pages: 400,
            n_dirs: 10,
            link_locality: 0.9,
            links_per_page: (4, 6),
            ..Default::default()
        };
        let (_, site) = Site::generate(&cfg);
        let mut local = 0usize;
        let mut total = 0usize;
        for p in &site.pages {
            for &l in &p.links {
                total += 1;
                if site.pages[l].dir == p.dir {
                    local += 1;
                }
            }
        }
        let frac = local as f64 / total.max(1) as f64;
        assert!(frac > 0.6, "locality fraction {frac}");
    }
}
