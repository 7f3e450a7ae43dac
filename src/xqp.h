#ifndef XQP_XQP_H_
#define XQP_XQP_H_

/// Umbrella header for the xqp library: the engine facade plus the public
/// pieces a typical embedder touches. Include narrower headers directly for
/// finer control (see README.md "Architecture").

#include "base/status.h"           // Status / Result
#include "engine.h"                // XQueryEngine / CompiledQuery / ResultStream
#include "exec/item.h"             // Item / Sequence
#include "join/structural_join.h"  // Structural join primitives
#include "join/twig.h"             // Twig patterns + holistic joins
#include "tokens/token_iterator.h" // TokenIterator / TokenSink
#include "tokens/token_stream.h"   // TokenStream storage mode
#include "xmark/generator.h"       // XMark-style data generator
#include "xmark/queries.h"         // Adapted XMark query set
#include "xml/document.h"          // Document / DocumentBuilder
#include "xml/node.h"              // Node handles
#include "xml/pull_parser.h"       // Streaming XML parser
#include "xml/serializer.h"        // XML serialization

#endif  // XQP_XQP_H_
